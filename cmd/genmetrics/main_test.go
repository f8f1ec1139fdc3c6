package main

import (
	"strings"
	"testing"

	"mvpears/internal/server"
)

// TestRenderRealTable: the daemon's metric table renders one row per
// family, in table order, each carrying the family's operator question.
func TestRenderRealTable(t *testing.T) {
	families := server.Families()
	doc, err := render(families)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "| `") {
			rows = append(rows, line)
		}
	}
	if len(rows) != len(families) {
		t.Fatalf("%d family rows, want %d", len(rows), len(families))
	}
	for i, f := range families {
		prefix := "| `" + f.Name + "` | " + f.Type + " | " + escapeCell(f.Question) + " | "
		if !strings.HasPrefix(rows[i], prefix) {
			t.Errorf("row %d = %q, want prefix %q", i, rows[i], prefix)
		}
	}
}

// TestRenderRejectsMissingQuestion: a family without an operator question
// fails the generation, naming the family.
func TestRenderRejectsMissingQuestion(t *testing.T) {
	families := server.Families()
	for _, q := range []string{"", "  "} {
		families[1].Question = q
		if _, err := render(families); err == nil || !strings.Contains(err.Error(), families[1].Name) {
			t.Errorf("question %q: err = %v, want an error naming %s", q, err, families[1].Name)
		}
	}
}
