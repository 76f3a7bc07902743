// Package io is not deterministic but is on the worker-pool list: its chunk
// parsers run on matrix.ParallelFor, so a go statement fires here too.
package io

func ParseChunks(parse func(i int) error, n int) []error {
	errs := make([]error, n)
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() { // want "go statement in io: run the work through matrix.ParallelFor"
			errs[i] = parse(i)
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return errs
}
