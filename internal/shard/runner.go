package shard

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/obs"
)

// UnitRunner executes individual manifest units. It is the shared
// execution core of the static path (RunShard runs a planned subset on
// a local pool) and the dynamic path (a dispatch worker runs whatever
// unit it claims next): both produce the same PartialCell bytes for
// the same unit, which is what keeps a dispatched run byte-identical
// to a static-shard run. A UnitRunner is safe for concurrent use —
// units are independent seeded simulations.
type UnitRunner struct {
	// Manifest is the enumeration the runner executes against.
	Manifest Manifest
	units    []Unit
	byID     map[string]int
	live     []experiments.Cell
}

// NewUnitRunner builds the manifest of (spec, pattern) against reg and
// binds every unit to its executable cell.
func NewUnitRunner(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string) (*UnitRunner, error) {
	m, err := Build(reg, spec, pattern)
	if err != nil {
		return nil, err
	}
	units, _ := m.Units() // validated by Build
	byID := make(map[string]int, len(units))
	for i, u := range units {
		byID[u.ID] = i
	}
	// Build just re-enumerated the registry, so manifest indices align
	// with a fresh enumeration.
	return &UnitRunner{Manifest: m, units: units, byID: byID, live: liveCells(reg, spec, pattern)}, nil
}

// Units lists the manifest's executable units in first-occurrence
// order. The slice is shared; callers must not mutate it.
func (r *UnitRunner) Units() []Unit { return r.units }

// Unit resolves a unit ID.
func (r *UnitRunner) Unit(id string) (Unit, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Unit{}, false
	}
	return r.units[i], true
}

// RunUnit executes the named unit's cell through experiments.RunCell
// (which also folds its counts into obs.Default()) and serializes its
// result. The returned cell's bytes depend only on the unit (its seed
// and parameters), never on which process or worker ran it.
func (r *UnitRunner) RunUnit(id string) (PartialCell, error) {
	ui, ok := r.byID[id]
	if !ok {
		return PartialCell{}, fmt.Errorf("shard: unknown unit %s", id)
	}
	u := r.units[ui]
	mc := r.Manifest.Cells[u.Cells[0]]
	start := time.Now() //perfiso:allow walltime unit wall time feeds timing.json only
	v := experiments.RunCell(r.live[u.Cells[0]], nil)
	elapsed := time.Since(start) //perfiso:allow walltime unit wall time feeds timing.json only
	blob, err := json.Marshal(v)
	if err != nil {
		return PartialCell{}, fmt.Errorf("shard: encoding %s/%s: %w", mc.Experiment, mc.Cell, err)
	}
	return PartialCell{
		Unit:       id,
		Experiment: mc.Experiment,
		Cell:       mc.Cell,
		Result:     blob,
		Seconds:    elapsed.Seconds(),
	}, nil
}

// RunUnits executes ids on a pool of workers goroutines, expensive
// units first, and returns their cells in ids order. onCell, when set,
// is called (serialized) after each unit completes. tracer, when set,
// receives one span per unit labeled with worker.
func (r *UnitRunner) RunUnits(ids []string, workers int, onCell func(experiment, cell string, elapsed time.Duration), tracer *obs.TraceBuffer, worker string) ([]PartialCell, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	type outcome struct {
		pc  PartialCell
		err error
	}
	var mu sync.Mutex
	base := time.Now() //perfiso:allow walltime span timestamps are observability only
	// Only Cost matters to the launch order.
	costs := make([]experiments.Cell, len(ids))
	for i, id := range ids {
		u, ok := r.Unit(id)
		if !ok {
			return nil, fmt.Errorf("shard: plan references unknown unit %s", id)
		}
		costs[i] = experiments.Cell{Name: id, Cost: u.Cost}
	}
	runUnit := func(id string) outcome {
		start := time.Now() //perfiso:allow walltime span timestamps are observability only
		pc, err := r.RunUnit(id)
		if err == nil && tracer != nil {
			tracer.Add(obs.Span{
				Experiment: pc.Experiment,
				Cell:       pc.Cell,
				Unit:       id,
				Worker:     worker,
				StartMs:    float64(start.Sub(base)) / 1e6,
				DurationMs: time.Since(start).Seconds() * 1e3, //perfiso:allow walltime span timestamps are observability only
			})
		}
		if err == nil && onCell != nil {
			mu.Lock()
			onCell(pc.Experiment, pc.Cell, time.Since(start)) //perfiso:allow walltime span timestamps are observability only
			mu.Unlock()
		}
		return outcome{pc, err}
	}

	order := experiments.CostOrder(costs)
	byOrder := experiments.Parallel(len(order), workers, func(i int) any { return runUnit(ids[order[i]]) })
	out := make([]PartialCell, len(ids))
	for i, ci := range order {
		o := byOrder[i].(outcome)
		if o.err != nil {
			return nil, o.err
		}
		out[ci] = o.pc
	}
	return out, nil
}
