// Package fed exercises goroutineerr outside the worker-pool packages:
// goroutines that drop errors fire, every sanctioned error-capture pattern
// stays quiet.
package fed

import "errors"

func work() error { return errors.New("boom") }

func helper() {}

type Worker struct{}

func (w *Worker) Run() error { return nil }

// fire: the go statement discards every result by construction.
func SpawnDirect() {
	go work() // want "goroutine drops the error returned by work"
}

// fire: method value with an error result.
func SpawnMethod(w *Worker) {
	go w.Run() // want "goroutine drops the error returned by w.Run"
}

// fire: expression-statement call inside the goroutine body implicitly
// discards the error.
func SpawnLit() {
	go func() {
		work() // want "goroutine drops the error returned by work"
	}()
}

// fire: a goroutine nested inside another goroutine is checked once, by the
// outer walk.
func SpawnNested() {
	go func() {
		go work() // want "goroutine drops the error returned by work"
	}()
}

// no fire: void functions have nothing to drop.
func SpawnVoid() {
	go helper()
}

// no fire: the error is published on a channel.
func SpawnCaptured(ch chan error) {
	go func() {
		ch <- work()
	}()
}

// no fire: the error is checked and forwarded.
func SpawnChecked(errCh chan error) {
	go func() {
		if err := work(); err != nil {
			errCh <- err
		}
	}()
}

// no fire: the error is stored in a captured variable for the joiner to read.
func SpawnStored(done chan struct{}) {
	var err error
	go func() {
		err = work()
		close(done)
	}()
	<-done
	_ = err
}

// no fire: an explicit blank assignment is a deliberate, visible discard.
func SpawnExplicitDiscard() {
	go func() {
		_ = work()
	}()
}
