// Package par is the repository's single bounded-parallelism idiom: a
// deterministic fork-join worker pool shared by every hot path (pattern
// coverage sweeps, cluster distance matrices, graphlet censuses, truss
// support counting, candidate generation fan-out).
//
// Determinism is by construction, not by luck:
//
//   - results are slot-indexed — worker i writes only out[i] (or its own
//     contiguous chunk), so the collected output is identical regardless of
//     how goroutines are scheduled;
//   - randomized tasks take per-task child RNGs derived with ChildSeed, so
//     a task's random stream depends only on (seed, task index), never on
//     which worker ran it or in what order.
//
// Together these guarantee that any workers value — including 1 — produces
// byte-identical results, which the determinism tests in the consuming
// packages assert.
//
// A task that panics does not take the process down from a worker
// goroutine, where no recover on the caller could reach it: the pool stops
// handing out tasks, waits for the running ones, and re-raises the first
// panic on the calling goroutine as a *Panic carrying the worker's stack.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the value a pool call re-raises on its caller when a task
// panicked: the first task panic's value and the stack of the goroutine
// that raised it. It is raised at every worker count, the inline
// single-worker path included, so a caller's recover sees one type.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("par: task panicked: %v\n\ntask goroutine stack:\n%s", p.Value, p.Stack)
}

// Unwrap returns the panic value when it is an error.
func (p *Panic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// asPanic wraps a recovered task panic; a *Panic from a nested pool call
// passes through unchanged, keeping the innermost stack.
func asPanic(v any) *Panic {
	if p, ok := v.(*Panic); ok {
		return p
	}
	return &Panic{Value: v, Stack: debug.Stack()}
}

// rethrow, deferred around an inline (single-worker) loop, re-raises a
// task panic as a *Panic.
func rethrow() {
	if v := recover(); v != nil {
		panic(asPanic(v))
	}
}

// firstPanic records the first task panic of one pool call.
type firstPanic struct{ p atomic.Pointer[Panic] }

// catch is deferred by every worker goroutine. It recovers a task panic,
// keeps it if it is the first, and calls stop (when non-nil) so the pool
// hands out no further tasks.
func (f *firstPanic) catch(stop func()) {
	if v := recover(); v != nil {
		f.p.CompareAndSwap(nil, asPanic(v))
		if stop != nil {
			stop()
		}
	}
}

// raised reports whether a task has panicked.
func (f *firstPanic) raised() bool { return f.p.Load() != nil }

// rethrow re-raises the recorded panic, if any, on the calling goroutine.
// Call it only after every worker has returned.
func (f *firstPanic) rethrow() {
	if p := f.p.Load(); p != nil {
		panic(p)
	}
}

// Workers resolves an effective worker count for n independent tasks:
// workers <= 0 means GOMAXPROCS, and the count never exceeds n.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Grain resolves a worker count for n tasks that are individually cheap:
// on top of the Workers resolution it caps the pool at n/grain, so a stage
// only fans out once every worker has at least `grain` tasks' worth of
// work. Below that threshold goroutine + slot bookkeeping costs more than
// the tasks themselves (the CorpusGFD and catapult scoring regressions in
// BENCH_parallel.json), and the stage runs inline. grain <= 1 is a no-op.
func Grain(workers, n, grain int) int {
	w := Workers(workers, n)
	if grain > 1 {
		if max := n / grain; w > max {
			w = max
		}
		if w < 1 {
			w = 1
		}
	}
	return w
}

// ForEachN runs fn(i) for every i in [0, n) on a bounded pool. Indices are
// claimed dynamically (atomic counter), which balances uneven task costs —
// the right shape for per-pattern isomorphism sweeps where one task can be
// orders of magnitude slower than another. fn must only write to
// slot-indexed state (out[i]) for the result to be deterministic.
// workers <= 0 means GOMAXPROCS; workers == 1 runs inline with no
// goroutines. A panicking task stops the hand-out of further indices and
// is re-raised on the caller as a *Panic once the running tasks finish.
func ForEachN(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		defer rethrow()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var fp firstPanic
	stop := func() { atomic.StoreInt64(&next, int64(n)) }
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer fp.catch(stop)
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	fp.rethrow()
}

// ForEachChunk partitions [0, n) into at most `workers` contiguous chunks
// and runs fn(lo, hi) per chunk — the right shape for loops of many cheap
// items (per-edge support counts, per-cell distance rows) where per-index
// dispatch overhead would dominate. Chunk boundaries depend only on n and
// workers, so slot-indexed writes remain deterministic. workers <= 0 means
// GOMAXPROCS; a single chunk runs inline. Every chunk is dispatched up
// front, so a panicking chunk cannot stop the others; the first panic is
// re-raised on the caller as a *Panic once they finish.
func ForEachChunk(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		defer rethrow()
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var fp firstPanic
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer fp.catch(nil)
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	fp.rethrow()
}

// Map computes [fn(0), ..., fn(n-1)] on a bounded pool, slot-indexed so the
// output order is scheduling-independent.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEachN(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// ChildSeed derives a statistically independent child seed for task i of a
// run seeded with seed, using a splitmix64 finalizer. Sequential and
// parallel executions hand task i the same RNG stream, which is what keeps
// randomized fan-outs (candidate walks per CSG, per-class topology
// sampling) reproducible at any worker count.
func ChildSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
