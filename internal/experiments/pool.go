package experiments

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfiso/internal/obs"
	"perfiso/internal/sim"
	"perfiso/internal/simtrace"
)

// CostOrder returns cell indices sorted expensive-first (stable, so
// equal costs keep enumeration order): the launch order shared by the
// in-process pool and the shard runner. With a balanced pool the wall
// clock is bounded by the last cell to start, so the big simulations
// go first.
func CostOrder(cells []Cell) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return cells[order[a]].CostOrDefault() > cells[order[b]].CostOrDefault()
	})
	return order
}

// poolSize clamps a requested worker count to something sensible:
// <= 0 means GOMAXPROCS, and there is no point in more workers than
// cells.
func poolSize(workers, cells int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cells {
		workers = cells
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// PoolSize reports the worker count a run with the given request and
// cell count actually uses — the resolved parallelism recorded in
// timing artifacts.
func PoolSize(workers, cells int) int { return poolSize(workers, cells) }

// RunCell executes one cell on a fresh engine, recording into tr when
// it is non-nil, and folds the engine's counts into obs.Default(). It
// is the one path every executor takes — the in-process pool, the
// shard runner and dispatch workers — so each executed cell is counted
// exactly once, wherever it runs.
func RunCell(c Cell, tr *simtrace.Tracer) any {
	eng := sim.NewEngine()
	v := c.Run(eng, tr)
	obs.Default().Add(eng.Counts())
	return v
}

// Parallel calls run(0), …, run(n-1) on a pool of workers goroutines
// and returns the results in index order. workers <= 0 uses
// GOMAXPROCS.
func Parallel(n, workers int, run func(i int) any) []any {
	out := make([]any, n)
	var mu sync.Mutex
	runPool(n, workers, run, func(i, _ int, v any, _ time.Time, _ time.Duration) {
		mu.Lock()
		out[i] = v
		mu.Unlock()
	})
	return out
}

// runPool is the pool core: workers goroutines pull indices from a
// shared counter, run them, and report each completion (concurrently)
// through done, along with the executing worker's index and the start
// time so callers can build traces. A panicking run stops its worker;
// the first panic is re-raised on the caller after the remaining
// workers drain.
func runPool(n, workers int, run func(i int) any, done func(i, worker int, v any, start time.Time, elapsed time.Duration)) {
	if n == 0 {
		return
	}
	workers = poolSize(workers, n)

	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//perfiso:allow nogoroutine the pool is the concurrency boundary cells run under
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				start := time.Now() //perfiso:allow walltime cell wall cost feeds timing.json only
				v := run(i)
				done(i, w, v, start, time.Since(start)) //perfiso:allow walltime cell wall cost feeds timing.json only
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
