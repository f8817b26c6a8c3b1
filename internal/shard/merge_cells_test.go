package shard

import (
	"bytes"
	"encoding/json"
	"testing"

	"perfiso/internal/experiments"
)

// TestMergeCellsArrivalOrderStable is the merged-timing determinism
// regression: the same executed cells, split across partials in any
// arrival order, must merge into identical timing.json cells bytes,
// one labelled row per executed unit in manifest order.
func TestMergeCellsArrivalOrderStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const filter = "^(fig10|headline)$"
	spec := experiments.TestSpec()
	reg := experiments.DefaultRegistry()
	var ps []Partial
	for i := 0; i < 2; i++ {
		p, err := RunShard(reg, RunShardOptions{Spec: spec, Filter: filter, Shard: i, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	// The same fleet finishing in the other order, and the same cells
	// carried by the other partial.
	swapped := []Partial{ps[0], ps[1]}
	swapped[0].Cells, swapped[1].Cells = ps[1].Cells, ps[0].Cells
	arrivals := [][]Partial{{ps[0], ps[1]}, {ps[1], ps[0]}, swapped}

	var want []byte
	for i, partials := range arrivals {
		res, timing, err := Merge(reg, spec, filter, partials)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(timing.Cells)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if !bytes.Equal(got, want) {
				t.Errorf("arrival order %d produced different cells:\n%s\nvs baseline:\n%s", i, got, want)
			}
			continue
		}
		want = got
		if len(timing.Cells) != res.CellCount || res.CellCount == 0 {
			t.Fatalf("merged timing has %d cells, run executed %d", len(timing.Cells), res.CellCount)
		}
		workers := map[string]bool{}
		for _, c := range timing.Cells {
			if c.Experiment == "" || c.Cell == "" || c.Unit == "" || c.Worker == "" {
				t.Errorf("cell missing labels: %+v", c)
			}
			workers[c.Worker] = true
		}
		if len(workers) != 2 {
			t.Errorf("merged cells attributed to %d shards, want 2: %v", len(workers), workers)
		}
	}
}
