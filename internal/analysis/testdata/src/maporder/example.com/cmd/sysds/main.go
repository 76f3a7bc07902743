// Package main exercises maporder in a command whose stdout is diffed: the
// output-file loop of sysds fires when it walks a map, not when it walks the
// flags in the order given.
package main

import "fmt"

// fire: files are written, and reported, in map order.
func WriteOutputs(outNames map[string]string) {
	for name, file := range outNames { // want "produces formatted output in map order"
		fmt.Printf("wrote %s to %s\n", name, file)
	}
}

// quiet: the same report over parallel slices in flag order.
func WriteOutputsInOrder(names, files []string) {
	for i, file := range files {
		fmt.Printf("wrote %s to %s\n", names[i], file)
	}
}
