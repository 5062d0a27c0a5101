// Command cktconv converts circuits between the supported formats:
// BLIF (.blif), ASCII AIGER (.aag), binary AIGER (.aig) and structural
// Verilog (.v, write-only).
//
//	cktconv in.blif out.aag
//	cktconv in.aig out.v
package main

import (
	"fmt"
	"os"
	"strings"

	"dpals"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: cktconv <in.blif|in.aag|in.aig> <out.blif|out.aag|out.aig|out.v>")
		os.Exit(2)
	}
	in, out := os.Args[1], os.Args[2]

	f, err := os.Open(in)
	check(err)
	c, err := dpals.ReadCircuit(f)
	f.Close()
	check(err)

	g, err := os.Create(out)
	check(err)
	defer g.Close()
	switch {
	case strings.HasSuffix(out, ".aag"):
		err = c.WriteAIGER(g)
	case strings.HasSuffix(out, ".aig"):
		err = c.WriteAIGERBinary(g)
	case strings.HasSuffix(out, ".v"):
		err = c.WriteVerilog(g)
	default:
		err = c.WriteBLIF(g)
	}
	check(err)
	fmt.Printf("%s → %s (%d inputs, %d outputs, %d gates)\n", in, out, c.NumInputs(), c.NumOutputs(), c.NumGates())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cktconv:", err)
		os.Exit(1)
	}
}
