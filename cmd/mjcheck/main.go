// Command mjcheck runs the static race analyses on an MJ program and
// prints their reports: the access sites each analysis proves
// race-free — the mask the runtime uses to skip dynamic checks — and the
// variables all of whose sites are race-free.
//
// Usage:
//
//	mjcheck [-analysis chord|rcc|both] [-json] program.mj
//
// Exit codes: 0 success, 2 usage error, 3 runtime failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"goldilocks/internal/mj"
	"goldilocks/internal/resilience"
	"goldilocks/internal/static"
)

func main() {
	analysis := flag.String("analysis", "both", "chord, rcc, or both")
	asJSON := flag.Bool("json", false, "machine-readable JSON report on stdout")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mjcheck [-analysis chord|rcc|both] [-json] program.mj")
		os.Exit(resilience.ExitUsage)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mjcheck:", err)
		os.Exit(resilience.ExitRuntime)
	}
	prog, err := mj.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mjcheck:", err)
		os.Exit(resilience.ExitRuntime)
	}
	if err := mj.Check(prog); err != nil {
		fmt.Fprintln(os.Stderr, "mjcheck:", err)
		os.Exit(resilience.ExitRuntime)
	}

	var docs []analysisDoc
	if *analysis == "chord" || *analysis == "both" {
		docs = append(docs, report("chord", static.Chord(prog), prog, *asJSON))
	}
	if *analysis == "rcc" || *analysis == "both" {
		// A fresh parse keeps the two analyses' sites independent.
		prog2, _ := mj.Parse(string(src))
		if err := mj.Check(prog2); err != nil {
			fmt.Fprintln(os.Stderr, "mjcheck:", err)
			os.Exit(resilience.ExitRuntime)
		}
		r, err := static.Rcc(prog2)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mjcheck: rcc:", err)
			os.Exit(resilience.ExitRuntime)
		}
		docs = append(docs, report("rcc", r, prog2, *asJSON))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"program": flag.Arg(0), "analyses": docs}); err != nil {
			fmt.Fprintln(os.Stderr, "mjcheck:", err)
			os.Exit(resilience.ExitRuntime)
		}
	}
}

// analysisDoc is one analysis entry of the -json report.
type analysisDoc struct {
	Analysis   string   `json:"analysis"`
	SafeSites  int      `json:"safe_sites"`
	TotalSites int      `json:"total_sites"`
	SafeFields []string `json:"safe_fields"`
}

// report summarizes one analysis result, printing the human-readable
// form unless the caller asked for JSON only.
func report(name string, r *static.Result, prog *mj.Program, jsonOnly bool) analysisDoc {
	fields := []string{}
	for k := range r.SafeFields {
		fields = append(fields, k.String())
	}
	sort.Strings(fields)
	doc := analysisDoc{
		Analysis:   name,
		SafeSites:  r.SafeSiteCount(),
		TotalSites: mj.NumSites(prog),
		SafeFields: fields,
	}
	if jsonOnly {
		return doc
	}

	fmt.Printf("=== %s ===\n", name)
	fmt.Printf("access sites proven race-free: %d / %d\n", doc.SafeSites, doc.TotalSites)
	fmt.Printf("race-free variables (%d):\n", len(fields))
	for _, f := range fields {
		fmt.Printf("  %s\n", f)
	}
	fmt.Println()
	return doc
}
