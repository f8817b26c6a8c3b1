package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"perfiso/internal/experiments"
	"perfiso/internal/shard"
)

// RunLocal dispatches the filtered run to n in-process workers through
// a loopback coordinator — the laptop and test mode of the subsystem.
// The workers speak the real HTTP protocol, so claim racing, leases
// and uploads are all exercised; only the network is local. n <= 0
// sizes the fleet like the cell pool (GOMAXPROCS, capped at the unit
// count). The returned partial merges like any other.
func RunLocal(reg *experiments.Registry, spec experiments.ScaleSpec, pattern string, n int,
	opts Options, onUnit func(experiment, cell string, elapsed time.Duration)) (shard.Partial, experiments.DispatchTiming, error) {
	var zt experiments.DispatchTiming
	runner, err := shard.NewUnitRunner(reg, spec, pattern)
	if err != nil {
		return shard.Partial{}, zt, err
	}
	c, err := NewCoordinator(runner.Manifest, opts)
	if err != nil {
		return shard.Partial{}, zt, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return shard.Partial{}, zt, err
	}
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	n = experiments.PoolSize(n, len(runner.Units()))
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// OnUnit fires from each worker's goroutine; the shared callback
	// gets one lock so callers see serialized calls, like RunUnits.
	if onUnit != nil {
		inner := onUnit
		var cbMu sync.Mutex
		onUnit = func(experiment, cell string, elapsed time.Duration) {
			cbMu.Lock()
			defer cbMu.Unlock()
			inner(experiment, cell, elapsed)
		}
	}
	var mu sync.Mutex
	errs := make([]error, 0, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{
			Coordinator: base,
			Name:        fmt.Sprintf("local-%d", i),
			Runner:      runner,
			OnUnit:      onUnit,
			Stats:       opts.Stats,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}()
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()

	// The coordinator finishing (success or poisoned-unit failure) is
	// the normal exit; every worker dying with units outstanding is the
	// abnormal one — without this branch the wait would hang forever.
	select {
	case <-c.Done():
	case <-workersDone:
	}
	cancel()
	wg.Wait()
	if err := c.Err(); err != nil {
		return shard.Partial{}, c.Timing(), err
	}
	p, err := c.Partial()
	if err != nil {
		return shard.Partial{}, c.Timing(), errors.Join(append([]error{err}, errs...)...)
	}
	return p, c.Timing(), nil
}
