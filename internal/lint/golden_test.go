package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mvpears/internal/lint"
)

// The golden tests load one package under testdata/src, run one analyzer
// (or the whole suite) over it, and cross-check the surviving
// diagnostics against `// want` assertions in the source — in both
// directions: every diagnostic must be wanted, every want must fire.
//
// Assertion syntax, on the line the diagnostic lands on:
//
//	expr // want `regexp` `another regexp`
//
// When the diagnostic's line cannot carry a comment (it IS a comment —
// the malformed //lint:allow cases), a whole-line form with an offset
// binds the assertion to a nearby line:
//
//	// want+2 `regexp`   <- expects the diagnostic two lines below
//
// Patterns are unanchored regexps matched against the diagnostic
// message; backquoted or double-quoted Go string syntax both work.

func TestPurityGolden(t *testing.T) {
	runGolden(t, "purity",
		&lint.Config{PurePaths: []string{"purity"}},
		[]*lint.Analyzer{lint.PurityAnalyzer})
}

func TestPoolsafeGolden(t *testing.T) {
	// Poolsafe is not path-scoped: ownership holds everywhere.
	runGolden(t, "poolsafe", &lint.Config{}, []*lint.Analyzer{lint.PoolsafeAnalyzer})
}

func TestCtxflowGolden(t *testing.T) {
	runGolden(t, "ctxflow",
		&lint.Config{ServingPaths: []string{"ctxflow"}, CtxPaths: []string{"ctxflow"}},
		[]*lint.Analyzer{lint.CtxflowAnalyzer})
}

func TestMetricnameGolden(t *testing.T) {
	runGolden(t, "metricname",
		&lint.Config{MetricTable: "metricname"},
		[]*lint.Analyzer{lint.MetricnameAnalyzer})
}

func TestFloateqGolden(t *testing.T) {
	runGolden(t, "floateq",
		&lint.Config{FloatEqPaths: []string{"floateq"}},
		[]*lint.Analyzer{lint.FloateqAnalyzer})
}

func TestAllowGolden(t *testing.T) {
	// The escape hatch runs through RunAnalyzers itself, so this golden
	// exercises the full suite: only floateq is in scope for the package,
	// and the directives steer which of its findings survive.
	runGolden(t, "allow",
		&lint.Config{FloatEqPaths: []string{"allow"}},
		lint.All())
}

// expectation is one want assertion bound to a file line.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

func runGolden(t *testing.T, dir string, cfg *lint.Config, analyzers []*lint.Analyzer) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(root, "")
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading testdata/src/%s: %v", dir, err)
	}

	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("testdata/src/%s has no // want assertions: the golden would pass vacuously", dir)
	}

	for _, d := range lint.RunAnalyzers(pkg, cfg, analyzers) {
		if !consumeWant(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", filepath.Base(w.file), w.line, w.rx)
		}
	}
}

var (
	wantOffsetRE = regexp.MustCompile(`^[+-][0-9]+`)
	// A backquoted or double-quoted Go string literal.
	wantTokenRE = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)
)

// collectWants scans the package's source files for want assertions.
func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(src)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want")
			if i < 0 {
				continue
			}
			spec := text[i+len("// want"):]
			target := line
			if off := wantOffsetRE.FindString(spec); off != "" {
				n, err := strconv.Atoi(off)
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q", name, line, off)
				}
				target = line + n
				spec = spec[len(off):]
			}
			toks := wantTokenRE.FindAllString(spec, -1)
			if len(toks) == 0 {
				t.Fatalf("%s:%d: // want carries no quoted pattern", name, line)
			}
			for _, tok := range toks {
				pat, err := strconv.Unquote(tok)
				if err != nil {
					t.Fatalf("%s:%d: unquoting %s: %v", name, line, tok, err)
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: compiling %q: %v", name, line, pat, err)
				}
				wants = append(wants, &expectation{file: name, line: target, rx: rx})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		src.Close()
	}
	return wants
}

// consumeWant marks the first unhit assertion matching the diagnostic.
func consumeWant(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.rx.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}
