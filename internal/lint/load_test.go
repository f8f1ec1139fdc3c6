package lint_test

import (
	"testing"

	"mvpears/internal/lint"
)

// TestLoadModulePolicyPaths loads the real module through the lint
// loader and checks that every package DefaultConfig names still
// exists — the policy must not rot when packages move.
func TestLoadModulePolicyPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, modulePath, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if modulePath != "mvpears" {
		t.Fatalf("module path = %q, want mvpears", modulePath)
	}
	pkgs, err := lint.NewLoader(root, modulePath).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			t.Errorf("%s loaded without type information", p.ImportPath)
		}
		have[p.ImportPath] = true
	}

	cfg := lint.DefaultConfig()
	var policy []string
	policy = append(policy, cfg.PurePaths...)
	policy = append(policy, cfg.ServingPaths...)
	policy = append(policy, cfg.CtxPaths...)
	policy = append(policy, cfg.FloatEqPaths...)
	policy = append(policy, cfg.MetricTable)
	for _, p := range policy {
		if !have[p] {
			t.Errorf("DefaultConfig names %s, but the module has no such package", p)
		}
	}
}
