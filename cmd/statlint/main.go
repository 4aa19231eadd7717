// Command statlint runs the engine's custom static-analysis suite
// (internal/lint + internal/lint/analyzers) over module packages:
// stdlib-only analyzers enforcing the conventions PRs 1–3 introduced —
// context plumbing and polling, goroutines only through
// internal/parallel, errors.Is over identity comparison, literal unique
// obs metric names, deterministic internal/ counter paths — plus the
// path-sensitive resource-leak suite (ledgerleak, spanend, closeleak,
// errdrop) built on internal/lint/cfg + dataflow.
//
// Usage:
//
//	go run ./cmd/statlint ./...              # lint the whole module
//	go run ./cmd/statlint -only errwrap,ctxpoll ./...
//	go run ./cmd/statlint -list              # print the rule set
//	go run ./cmd/statlint -sarif out.sarif ./...
//	go run ./cmd/statlint -suppressions ./...
//
// Exit status: 0 clean, 1 findings, 2 usage/load/type errors. Findings
// are suppressed per line with `//lint:ignore <analyzer> <reason>`; see
// DESIGN.md §"Static analysis" for each rule and the suppression policy.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"statcube/internal/lint"
	"statcube/internal/lint/analyzers"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and their rules, then exit")
	sarifOut := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (\"-\" for stdout)")
	suppressions := flag.Bool("suppressions", false, "print //lint:ignore directive counts per analyzer and exit")
	flag.Parse()

	set := analyzers.All()
	if *list {
		for _, a := range set {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a := analyzers.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "statlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		set = picked
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "statlint:", err)
		os.Exit(2)
	}
	res, err := lint.Run(loader, patterns, set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statlint:", err)
		os.Exit(2)
	}
	if len(res.TypeErrors) > 0 {
		for _, e := range res.TypeErrors {
			fmt.Fprintln(os.Stderr, "statlint: typecheck:", e)
		}
		os.Exit(2)
	}

	if *suppressions {
		writeSuppressions(res)
		return
	}

	diags := res.Diagnostics
	if *sarifOut != "" {
		w := os.Stdout
		if *sarifOut != "-" {
			f, err := os.Create(*sarifOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "statlint:", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		if err := lint.WriteSARIF(w, diags, set, loader.ModRoot()); err != nil {
			fmt.Fprintln(os.Stderr, "statlint:", err)
			os.Exit(2)
		}
	}

	if err := lint.WriteText(os.Stdout, diags); err != nil {
		fmt.Fprintln(os.Stderr, "statlint:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "statlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// writeSuppressions prints the //lint:ignore inventory: per-analyzer
// directive counts plus a total. CI records the total and fails when it
// grows past the budget.
func writeSuppressions(res *lint.Result) {
	names := make([]string, 0, len(res.Suppressions))
	for name := range res.Suppressions {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0
	for _, n := range names {
		total += res.Suppressions[n]
		fmt.Printf("%-16s %d\n", n, res.Suppressions[n])
	}
	fmt.Printf("%-16s %d\n", "total", total)
}
