// Package lint implements mvpearslint, the project-invariant static
// analysis suite. MVP-EARS's detection argument rests on contracts that
// ordinary Go tooling cannot see: the deterministic pipeline packages
// must be bit-reproducible (no wall clock, no global randomness, no
// map-iteration-ordered output), every pooled buffer must be released on
// every exit path, request contexts must thread through the serving
// layer instead of being re-rooted, metric families must fit the
// exposition grammar, and float similarity scores must never be compared
// with ==. Each contract is encoded as an Analyzer; the driver in
// cmd/mvpearslint loads the whole module with go/parser + go/types (no
// dependencies beyond the standard library, matching the repo's
// hand-rolled ethos) and runs the suite at `make check` time.
//
// Findings can be suppressed with a reviewed escape hatch: a comment of
// the form
//
//	//lint:allow <analyzer> <justification>
//
// on the offending line or the line directly above it. The justification
// is mandatory; an allow directive without one is itself a finding, so
// escapes stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one project invariant over a single type-checked
// package. Analyzers self-select: Run inspects pass.Pkg.ImportPath (via
// the Config path sets) and returns without reporting when the package
// is outside the invariant's scope.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:allow
	Doc  string // one-line description shown by mvpearslint -list
	Run  func(*Pass)
}

// A Diagnostic is one finding at one source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass couples one analyzer run to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Cfg      *Config
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config scopes the analyzers to package sets. The zero value checks
// nothing; DefaultConfig returns the project policy. Golden-file tests
// construct Configs that point at testdata import paths instead.
type Config struct {
	// PurePaths are the deterministic pipeline packages: no wall-clock
	// reads, no global math/rand, no map-iteration-ordered output.
	PurePaths []string
	// ServingPaths are the request-serving packages where
	// context.Background()/context.TODO() are forbidden: every detection
	// runs under a request context with a deadline.
	ServingPaths []string
	// CtxPaths are the packages whose functions must forward any
	// context.Context parameter they accept, and whose *Ctx-suffixed
	// exported entry points must take the context first.
	CtxPaths []string
	// FloatEqPaths are the packages where ==/!= on floating-point
	// operands is forbidden outside test files.
	FloatEqPaths []string
	// MetricTable is the import path of the package whose metric table
	// declares every family: its counter, gauge and histogram row
	// constructors must be called with constant, grammar-conforming family
	// and label names.
	MetricTable string
}

// DefaultConfig returns the policy enforced on the mvpears module.
func DefaultConfig() *Config {
	return &Config{
		PurePaths: []string{
			"mvpears/internal/dsp",
			"mvpears/internal/nn",
			"mvpears/internal/hmm",
			"mvpears/internal/ctc",
			"mvpears/internal/phonetic",
			"mvpears/internal/similarity",
			"mvpears/internal/classify",
			"mvpears/internal/asr",
			"mvpears/internal/obs/drift",
		},
		ServingPaths: []string{
			"mvpears/internal/server",
			"mvpears/internal/stream",
			"mvpears/internal/vcache",
			"mvpears/internal/cluster",
		},
		CtxPaths: []string{
			"mvpears",
			"mvpears/internal/server",
			"mvpears/internal/stream",
			"mvpears/internal/vcache",
			"mvpears/internal/cluster",
			"mvpears/internal/detector",
			"mvpears/internal/asr",
		},
		FloatEqPaths: []string{
			"mvpears/internal/detector",
			"mvpears/internal/classify",
		},
		MetricTable: "mvpears/internal/server",
	}
}

// pathIn reports whether the import path is one of the listed packages.
func pathIn(path string, set []string) bool {
	for _, s := range set {
		if path == s {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PurityAnalyzer,
		PoolsafeAnalyzer,
		CtxflowAnalyzer,
		MetricnameAnalyzer,
		FloateqAnalyzer,
	}
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer      string
	justification string
	pos           token.Position
}

// allowDirectives scans a file's comments for //lint:allow directives,
// keyed by the line the directive sits on.
func allowDirectives(fset *token.FileSet, f *ast.File) map[int][]allowDirective {
	out := make(map[int][]allowDirective)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:allow")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			d := allowDirective{pos: pos}
			if len(fields) > 0 {
				d.analyzer = fields[0]
				d.justification = strings.TrimSpace(strings.Join(fields[1:], " "))
			}
			out[pos.Line] = append(out[pos.Line], d)
		}
	}
	return out
}

// RunAnalyzers runs the given analyzers over one package and returns the
// surviving diagnostics: suppressed findings are dropped, and malformed
// //lint:allow directives (no analyzer name or no justification) are
// reported as findings of the pseudo-analyzer "lint". A directive
// suppresses a finding when it names the finding's analyzer and sits on
// the finding's line or the line directly above it.
func RunAnalyzers(pkg *Package, cfg *Config, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Cfg: cfg, Pkg: pkg}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}

	// Directive index: filename -> line -> directives.
	allows := make(map[string]map[int][]allowDirective)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		allows[name] = allowDirectives(pkg.Fset, f)
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	kept := diags[:0]
	for _, d := range diags {
		if suppressed(d, allows) {
			continue
		}
		kept = append(kept, d)
	}

	// Malformed directives are findings: an escape hatch without a
	// justification (or naming no analyzer) defeats the review trail.
	for _, file := range sortedKeys(allows) {
		for _, line := range sortedIntKeys(allows[file]) {
			for _, dir := range allows[file][line] {
				switch {
				case dir.analyzer == "":
					kept = append(kept, Diagnostic{
						Analyzer: "lint",
						Pos:      dir.pos,
						Message:  "//lint:allow must name an analyzer: //lint:allow <analyzer> <justification>",
					})
				case dir.justification == "" && known[dir.analyzer]:
					kept = append(kept, Diagnostic{
						Analyzer: "lint",
						Pos:      dir.pos,
						Message:  fmt.Sprintf("//lint:allow %s needs a justification", dir.analyzer),
					})
				}
			}
		}
	}

	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

func suppressed(d Diagnostic, allows map[string]map[int][]allowDirective) bool {
	byLine := allows[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range byLine[line] {
			if dir.analyzer == d.Analyzer && dir.justification != "" {
				return true
			}
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
