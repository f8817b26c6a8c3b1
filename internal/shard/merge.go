package shard

import (
	"fmt"
	"strings"

	"perfiso/internal/experiments"
)

// Merge verifies a set of shard partials against the manifest of
// (spec, pattern) and reassembles the run they cover. The coverage
// check is strict: every manifest unit must appear in exactly one
// partial, a unit in two partials or a unit the manifest does not
// know is an error, and every partial must carry the same manifest
// hash, scale and version. On success the returned RunResult is
// indistinguishable from a single-process registry run — the JSON/CSV
// artifacts and rendered report come out byte-identical.
func Merge(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string, partials []Partial) (experiments.RunResult, experiments.RunTiming, error) {
	var zero experiments.RunResult
	var zt experiments.RunTiming
	if len(partials) == 0 {
		return zero, zt, fmt.Errorf("shard: merge: no partials")
	}
	m, err := Build(reg, spec, pattern)
	if err != nil {
		return zero, zt, err
	}
	units, _ := m.Units() // validated by Build
	unitIdx := map[string]int{}
	for i, u := range units {
		unitIdx[u.ID] = i
	}

	// Collect each unit's result, rejecting strays and duplicates.
	got := make([]*PartialCell, len(units))
	owner := make([]int, len(units)) // partial index that provided it
	timing := experiments.RunTiming{Source: "merged"}
	for pi := range partials {
		p := &partials[pi]
		if p.Version != PartialVersion {
			return zero, zt, fmt.Errorf("shard: merge: shard %d partial is version %d, want %d", p.Shard, p.Version, PartialVersion)
		}
		if p.Scale != spec.Name {
			return zero, zt, fmt.Errorf("shard: merge: shard %d ran scale %q, merging %q", p.Shard, p.Scale, spec.Name)
		}
		if p.ManifestHash != m.Hash {
			return zero, zt, fmt.Errorf("shard: merge: shard %d was planned against manifest %s, this registry/scale/filter builds %s — rerun the shard or the merge with matching flags and cell enumeration", p.Shard, p.ManifestHash, m.Hash)
		}
		for ci := range p.Cells {
			c := &p.Cells[ci]
			ui, ok := unitIdx[c.Unit]
			if !ok {
				return zero, zt, fmt.Errorf("shard: merge: shard %d carries unit %s (%s/%s) that is not in the manifest", p.Shard, c.Unit, c.Experiment, c.Cell)
			}
			if prev := got[ui]; prev != nil {
				return zero, zt, fmt.Errorf("shard: merge: unit %s (%s/%s) appears in both shard %d and shard %d", c.Unit, c.Experiment, c.Cell, partials[owner[ui]].Shard, p.Shard)
			}
			got[ui] = c
			owner[ui] = pi
			timing.SequentialSeconds += c.Seconds
		}
		timing.Shards = append(timing.Shards, experiments.ShardTiming{
			Shard:          p.Shard,
			Shards:         p.Shards,
			Workers:        p.Workers,
			Cells:          len(p.Cells),
			ElapsedSeconds: p.ElapsedSeconds,
		})
		if p.ElapsedSeconds > timing.ElapsedSeconds {
			timing.ElapsedSeconds = p.ElapsedSeconds
		}
	}
	var missing []string
	for i, u := range units {
		if got[i] == nil {
			mc := m.Cells[u.Cells[0]]
			missing = append(missing, fmt.Sprintf("%s (%s/%s)", u.ID, mc.Experiment, mc.Cell))
		}
	}
	if len(missing) > 0 {
		return zero, zt, fmt.Errorf("shard: merge: %d of %d manifest units missing from the partial set: %s", len(missing), len(units), strings.Join(missing, ", "))
	}

	// Per-cell timings in manifest unit order, so the list does not
	// depend on which partial arrived first.
	cellTimings := make([]experiments.CellTiming, len(units))
	for i, pc := range got {
		cellTimings[i] = experiments.CellTiming{
			Experiment:   pc.Experiment,
			Cell:         pc.Cell,
			Unit:         pc.Unit,
			Worker:       pc.Worker,
			StartSeconds: pc.StartSeconds,
			Seconds:      pc.Seconds,
			Attempts:     pc.Attempts,
		}
	}
	timing.Cells = cellTimings

	// Decode every logical cell through its experiment's hook and
	// assemble, mirroring Registry.Run: results index-aligned with the
	// experiment's cell slice, cell seconds attributed to the
	// experiment that first references the unit.
	sel, err := selectExperiments(reg, pattern)
	if err != nil {
		return zero, zt, err
	}
	out := experiments.RunResult{
		Spec:         spec,
		CellCount:    len(units),
		SharedCells:  len(m.Cells) - len(units),
		ManifestHash: m.Hash,
		CellTimings:  cellTimings,
	}
	mi := 0
	counted := map[string]bool{} // units whose seconds are already attributed
	for _, e := range sel {
		cells := e.Cells(spec)
		results := make([]any, len(cells))
		var cellSec float64
		for ci := range cells {
			mc := m.Cells[mi]
			mi++
			id := UnitID(mc)
			pc := got[unitIdx[id]]
			if e.DecodeResult == nil {
				return zero, zt, fmt.Errorf("shard: merge: experiment %q has no DecodeResult and cannot be merged", e.Name)
			}
			v, err := e.DecodeResult(pc.Result)
			if err != nil {
				return zero, zt, fmt.Errorf("shard: merge: decoding %s/%s: %w", mc.Experiment, mc.Cell, err)
			}
			results[ci] = v
			if !counted[id] {
				counted[id] = true
				cellSec += pc.Seconds
			}
		}
		value, report := e.Assemble(spec, cells, results)
		names := make([]string, len(cells))
		for i, c := range cells {
			names[i] = c.Name
		}
		out.Experiments = append(out.Experiments, experiments.ExperimentResult{
			Name:        e.Name,
			Describe:    e.Describe,
			CellNames:   names,
			Value:       value,
			Report:      report,
			CellSeconds: cellSec,
		})
		out.SequentialSeconds += cellSec
	}
	return out, timing, nil
}
