package par

// Context-aware variants of the pool primitives. They preserve the
// slot-indexed determinism contract for every task that runs: a task either
// executes exactly as it would under the plain variant (same index, same
// ChildSeed stream) or does not start at all. Cancellation only affects
// *which* tasks run — never what an executed task computes — so partial
// results remain byte-identical to a prefix-complete run at any worker
// count.
//
// Cancellation is checked before each task is claimed; a task already
// running is never interrupted (pass the context into the task itself via
// isomorph.Options.Ctx or similar when intra-task cancellation matters).

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEachNCtx is ForEachN with cooperative cancellation: workers stop
// claiming new indices once ctx is done and the call returns ctx.Err().
// Slots whose task completed hold valid results; the caller decides whether
// a partial result is usable (the repo's pipelines treat it as a sound
// under-approximation and mark the outcome truncated).
func ForEachNCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		defer rethrow()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fn(i)
		}
		return ctx.Err()
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
			for ctx.Err() == nil {
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
	return ctx.Err()
}

// ForEachChunkCtx is ForEachChunk with cooperative cancellation, checked
// before each chunk is dispatched. Chunk boundaries are identical to
// ForEachChunk's, so completed chunks are byte-identical to the plain run.
func ForEachChunkCtx(ctx context.Context, n, workers int, fn func(lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		defer rethrow()
		fn(0, n)
		return ctx.Err()
	}
	chunk := (n + workers - 1) / workers
	var fp firstPanic
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		if ctx.Err() != nil || fp.raised() {
			break
		}
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
	return ctx.Err()
}

// MapCtx is Map with cooperative cancellation. The returned slice always
// has length n; on cancellation, slots whose task did not run hold the zero
// value and the error is ctx.Err(). done[i] semantics are intentionally not
// reported — callers that need per-slot validity should fold a sentinel
// into T.
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	err := ForEachNCtx(ctx, n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out, err
}
