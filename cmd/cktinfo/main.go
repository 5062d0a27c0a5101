// Command cktinfo prints the benchmark circuit information table
// (paper Table I) for the built-in suite, or for circuits supplied as
// BLIF/AIGER files.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dpals"
	"dpals/internal/repro"
)

func main() {
	scaled := flag.Bool("scaled", true, "use scaled-down circuit sizes (false: paper sizes; slow to build)")
	flag.Parse()

	if flag.NArg() == 0 {
		repro.TableI(repro.Config{Out: os.Stdout, Scaled: *scaled})
		return
	}
	fmt.Printf("%-24s %9s %6s %10s %9s\n", "Circuit", "#I/O", "#Nd", "Area", "Delay")
	for _, path := range flag.Args() {
		c, err := load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cktinfo: %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Printf("%-24s %4d/%-4d %6d %10.2f %9.2f\n",
			filepath.Base(path), c.NumInputs(), c.NumOutputs(), c.NumGates(), c.Area(), c.Delay())
	}
}

func load(path string) (*dpals.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dpals.ReadCircuit(f)
}
