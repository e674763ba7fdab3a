// Command smartlint runs the project's static-analysis suite (see
// internal/lint and internal/lint/flow) over the given package
// patterns and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/smartlint ./...
//	go run ./cmd/smartlint -list
//	go run ./cmd/smartlint -only mutexheld,deadline ./internal/...
//	go run ./cmd/smartlint -json ./...
//	go run ./cmd/smartlint -stats ./...
//
// Findings print as `file:line: [analyzer] message` (or as a JSON
// array with -json). Suppress one with a `//lint:ignore <analyzer>
// <reason>` comment on the same line or the line above. There is no
// baseline of tolerated findings: any finding fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"smartsock/internal/lint"

	// Register lockorder, the module-level analyzer.
	_ "smartsock/internal/lint/flow"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	stats := flag.Bool("stats", false, "print per-analyzer finding counts to stderr")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := lint.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "smartlint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	pkgs, err := lint.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smartlint: %v\n", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	findings := lint.ToJSON(lint.Run(pkgs, analyzers), cwd)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "smartlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: [%s] %s\n", f.File, f.Line, f.Analyzer, f.Message)
		}
	}

	if *stats {
		counts := make(map[string]int)
		for _, f := range findings {
			counts[f.Analyzer]++
		}
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "smartlint: %-13s %d finding(s)\n", a.Name, counts[a.Name])
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "smartlint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}
