package matrix

import (
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(worker, task) for every task in [0, tasks) and is the
// one worker pool of the runtime: multi-threaded kernels, the compressed
// kernels, the blocked backend, the CSV reader and parfor all run on it.
//
//   - With min(workers, tasks) <= 1 every task runs inline on the caller's
//     goroutine, in ascending order, and the first error stops the loop.
//   - Otherwise min(workers, tasks) goroutines claim tasks in ascending order
//     from one counter; worker is the index of the goroutine running the task
//     (in [0, workers)), for per-worker scratch. No task is claimed after a
//     task has failed.
//   - The result is the error of the lowest-numbered failed task. Every task
//     below a failed one was claimed before it and runs to completion, so the
//     error does not depend on the schedule.
//   - A panicking task fails like an erroring one; once every worker has
//     returned, the panic of the lowest-numbered failed task is raised again
//     on the caller's goroutine, so a recover in the caller contains it.
//
// The task set is the caller's: chunk boundaries are derived from the task
// index, never from which worker runs it.
func ParallelFor(tasks, workers int, fn func(worker, task int) error) error {
	workers = min(workers, tasks)
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			if err := fn(0, t); err != nil {
				return err
			}
		}
		return nil
	}
	// each worker stops at its first failure, so one slot per worker holds
	// every failure there is
	type failure struct {
		task  int
		err   error
		panic any // recover() is never nil for a panic, not even panic(nil)
	}
	fails := make([]failure, workers)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//sysds:ok(goroutineerr): the one worker pool; errors and panics reach the caller through fails
		go func() {
			defer wg.Done()
			f := &fails[w]
			defer func() {
				if f.panic = recover(); f.panic != nil {
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				f.task = t
				if f.err = fn(w, t); f.err != nil {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	var first *failure
	for i := range fails {
		f := &fails[i]
		if (f.err != nil || f.panic != nil) && (first == nil || f.task < first.task) {
			first = f
		}
	}
	switch {
	case first == nil:
		return nil
	case first.panic != nil:
		panic(first.panic)
	default:
		return first.err
	}
}
