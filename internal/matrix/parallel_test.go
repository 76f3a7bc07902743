package matrix

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForRunsEveryTaskOnce: every task runs exactly once, on a worker
// index below min(workers, tasks).
func TestParallelForRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, tasks := range []int{0, 1, 5, 100} {
			runs := make([]atomic.Int32, tasks)
			var badWorker atomic.Int32
			err := ParallelFor(tasks, workers, func(w, task int) error {
				if w < 0 || w >= min(workers, tasks) {
					badWorker.Store(1)
				}
				runs[task].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d tasks=%d: %v", workers, tasks, err)
			}
			if badWorker.Load() != 0 {
				t.Errorf("workers=%d tasks=%d: worker index out of range", workers, tasks)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Errorf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, i, n)
				}
			}
		}
	}
}

// TestParallelForStartsNoMoreGoroutinesThanTasks holds all tasks of an
// oversized pool at a barrier and counts the goroutines alive there.
func TestParallelForStartsNoMoreGoroutinesThanTasks(t *testing.T) {
	const tasks, workers = 3, 8
	baseline := runtime.NumGoroutine()
	var arrived atomic.Int32
	all := make(chan struct{})
	var during atomic.Int32
	err := ParallelFor(tasks, workers, func(w, task int) error {
		if w >= tasks {
			return fmt.Errorf("task %d ran on worker %d of a pool that needs %d", task, w, tasks)
		}
		if arrived.Add(1) == tasks {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			return errors.New("barrier timed out: fewer workers than tasks")
		}
		if task == 0 {
			during.Store(int32(runtime.NumGoroutine()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if extra := int(during.Load()) - baseline; extra > tasks {
		t.Errorf("%d goroutines above baseline with %d tasks and %d workers", extra, tasks, workers)
	}
}

// TestParallelForLowestFailedTaskWins: tasks 400 and 700 fail, 400 slowly, so
// 700 usually fails first in time; the error of task 400 is returned anyway.
func TestParallelForLowestFailedTaskWins(t *testing.T) {
	for run := 0; run < 100; run++ {
		err := ParallelFor(1000, 4, func(_, task int) error {
			switch task {
			case 400:
				time.Sleep(time.Millisecond)
				return fmt.Errorf("task %d", task)
			case 700:
				return fmt.Errorf("task %d", task)
			}
			return nil
		})
		if err == nil || err.Error() != "task 400" {
			t.Fatalf("run %d: error %v, want task 400", run, err)
		}
	}
}

// TestParallelForPanicReachesCaller: a task's panic is recovered by the caller
// of ParallelFor, for the inline and the pooled path, and no worker goroutine
// outlives the call.
func TestParallelForPanicReachesCaller(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		got := func() (v any) {
			defer func() { v = recover() }()
			_ = ParallelFor(50, workers, func(_, task int) error {
				if task == 17 {
					panic("boom")
				}
				return nil
			})
			return nil
		}()
		if got != "boom" {
			t.Errorf("workers=%d: recovered %v, want boom", workers, got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after the panic, baseline %d", n, baseline)
	}
}

// TestParallelForInlineOnCaller: with at most one worker, or one task, every
// task runs on the caller's goroutine.
func TestParallelForInlineOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, tc := range []struct{ tasks, workers int }{{5, -1}, {5, 0}, {5, 1}, {1, 8}} {
		err := ParallelFor(tc.tasks, tc.workers, func(_, task int) error {
			if id := goroutineID(); id != caller {
				return fmt.Errorf("task %d ran on goroutine %d, caller is %d", task, id, caller)
			}
			return nil
		})
		if err != nil {
			t.Errorf("tasks=%d workers=%d: %v", tc.tasks, tc.workers, err)
		}
	}
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 7 [running]:").
func goroutineID() int {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.Atoi(string(buf[:bytes.IndexByte(buf, ' ')]))
	if err != nil {
		panic(err)
	}
	return id
}
