// Package dist is a deterministic package: its concurrency goes through the
// one worker pool, so every go statement fires, whether or not it drops an
// error, unless it carries a justified suppression.
package dist

import "errors"

func work() error { return errors.New("boom") }

// fire: a hand-rolled pool, even one that captures its errors.
func HandRolled(errs []error) {
	done := make(chan struct{})
	go func() { // want "go statement in dist: run the work through matrix.ParallelFor"
		errs[0] = work()
		close(done)
	}()
	<-done
}

// fire: both rules at once.
func Dropped() {
	go work() // want "go statement in dist" "goroutine drops the error returned by work"
}

// no fire: the pool's own go statement carries the one suppression.
func Pool(fn func() error) error {
	var err error
	done := make(chan struct{})
	//sysds:ok(goroutineerr): the one worker pool
	go func() {
		err = fn()
		close(done)
	}()
	<-done
	return err
}
