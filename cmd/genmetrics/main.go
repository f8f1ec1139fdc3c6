// Command genmetrics generates docs/METRICS.md — the reference for
// every Prometheus family the serving daemon exports — straight from
// the server's metric table (server.Families), so the docs can never
// drift from the code. `make metrics-docs` regenerates the file; CI
// fails when the committed copy is stale, and genmetrics fails on a
// family without an operator question.
//
// Usage:
//
//	genmetrics [-o docs/METRICS.md]
//
// With no -o the markdown is written to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mvpears/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "genmetrics:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("genmetrics", flag.ContinueOnError)
	out := fs.String("o", "", "write the generated markdown here (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc, err := render(server.Families())
	if err != nil {
		return err
	}
	if *out == "" {
		_, err := os.Stdout.WriteString(doc)
		return err
	}
	return os.WriteFile(*out, []byte(doc), 0o644)
}

// render writes the reference for families, one table row each. A family
// nobody can name an operator question for should not be exported, so an
// empty Question is an error.
func render(families []server.Family) (string, error) {
	var b strings.Builder
	b.WriteString("# Metrics reference\n\n")
	b.WriteString("<!-- Generated by `go run ./cmd/genmetrics -o docs/METRICS.md`\n")
	b.WriteString("     (make metrics-docs). Do not edit by hand: CI diffs this file\n")
	b.WriteString("     against a fresh generation and fails when it is stale. -->\n\n")
	fmt.Fprintf(&b, "Every family exported on `/metrics` by `mvpearsd`, in registration\norder (%d families), with the operator question it answers.\n\n", len(families))
	b.WriteString("| Family | Type | Operator question | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, f := range families {
		if strings.TrimSpace(f.Question) == "" {
			return "", fmt.Errorf("family %s has no operator question", f.Name)
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", f.Name, f.Type, escapeCell(f.Question), escapeCell(f.Help))
	}
	return b.String(), nil
}

// escapeCell keeps help text from breaking the markdown table.
func escapeCell(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
