package experiments

import "testing"

func TestFullStackProtectsPrimaryEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	base := RunSingle(2000, BullyOff, nil, TestScale())
	spec := TestSpec()
	spec.FullStackQPS = 2000
	r := runExperiment[FullStackResult](t, spec, "fullstack")

	// 1) CPU, disk, network and memory pressure all at once: the tail
	// still holds within the paper's band.
	if d := r.Latency.P99Ms - base.Latency.P99Ms; d > 1.5 {
		t.Errorf("full-stack P99 degradation = %.2f ms (%.2f → %.2f), want <= 1.5",
			d, base.Latency.P99Ms, r.Latency.P99Ms)
	}
	if r.DropRate > 0.002 {
		t.Errorf("full-stack drop rate = %.4f", r.DropRate)
	}
	// 2) Every secondary still makes progress.
	if r.CPUBullyProgress <= 0 {
		t.Error("CPU bully starved")
	}
	if r.DiskBullyMBps <= 1 {
		t.Errorf("disk bully rate = %.2f MB/s, starved", r.DiskBullyMBps)
	}
	if r.HDFSClientMBps <= 1 || r.HDFSClientMBps > 66 {
		t.Errorf("hdfs client rate = %.2f MB/s, want within (1, 60+slack]", r.HDFSClientMBps)
	}
	if r.ShuffleMBps <= 1 || r.ShuffleMBps > 60 {
		t.Errorf("shuffle rate = %.2f MB/s, want bounded by the 50 MB/s egress cap", r.ShuffleMBps)
	}
	// 3) The machine is genuinely busy.
	if r.UsedPct < 55 {
		t.Errorf("used = %.1f%%, want heavy harvest", r.UsedPct)
	}
}
