package lint

import (
	"go/ast"
	"go/constant"
	"regexp"
)

// MetricnameAnalyzer enforces the exposition contract of the hand-rolled
// metrics table. The /metrics endpoint renders families straight into
// the Prometheus text format, so a family name outside the project
// grammar (^mvpears_[a-z0-9_]+$) or a label name outside the identifier
// grammar corrupts the scrape. Every family is one row of the table,
// built by the table package's counter, gauge or histogram function;
// names and label keys there must be compile-time constants: the only
// dynamic strings on the exposition path are label VALUES, which the
// registry escapes at render time — keeping that true is exactly what
// makes a constant-name check sufficient.
var MetricnameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc:  "metric families must be constant mvpears_* names with constant, identifier-grammar label keys",
	Run:  runMetricname,
}

var (
	metricFamilyRE = regexp.MustCompile(`^mvpears_[a-z0-9_]+$`)
	metricLabelRE  = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// metricRowFuncs are the table's row constructors, with the index of the
// trailing variadic label-name parameter.
var metricRowFuncs = map[string]int{
	"counter":   2,
	"gauge":     2,
	"histogram": 3,
}

func runMetricname(pass *Pass) {
	table := pass.Cfg.MetricTable
	if pass.Pkg.ImportPath != table {
		return // the row constructors are unexported: only the table's package calls them
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			labelStart, ok := metricRowFuncs[fn.Name()]
			if !ok || !isPkgFunc(fn, table, fn.Name()) || len(call.Args) == 0 {
				return true
			}

			if name, isConst := constString(pass, call.Args[0]); !isConst {
				pass.Reportf(call.Args[0].Pos(), "metric family name must be a compile-time constant (dynamic names break the exposition grammar)")
			} else if !metricFamilyRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric family %q does not match ^mvpears_[a-z0-9_]+$", name)
			}

			for _, arg := range call.Args[min(labelStart, len(call.Args)):] {
				if label, isConst := constString(pass, arg); !isConst {
					pass.Reportf(arg.Pos(), "metric label name must be a compile-time constant (only label values are escaped at render time)")
				} else if !metricLabelRE.MatchString(label) {
					pass.Reportf(arg.Pos(), "metric label %q does not match ^[a-z_][a-z0-9_]*$", label)
				}
			}
			return true
		})
	}
}

// constString evaluates expr as a compile-time string constant.
func constString(pass *Pass, expr ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
