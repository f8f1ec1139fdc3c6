package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvpears/internal/server"
	"mvpears/internal/stream"
)

// TestRunRejectsBadCombinations boots run with -bootstrap and a missing
// -model artifact plus one rejected combination per row: run must name
// every offending flag in one error, return before training (no artifact
// appears), and do so well inside a second.
func TestRunRejectsBadCombinations(t *testing.T) {
	rows := []struct {
		name string
		args []string
		want []string // offending flags, one problem each
	}{
		{"peers without cluster", []string{"-peers", "127.0.0.1:1"}, []string{"-peers"}},
		{"self without cluster", []string{"-cluster-self", "10.0.0.1:9090"}, []string{"-cluster-self"}},
		{"audit knobs without audit", []string{"-audit-rotate-bytes", "1", "-audit-retain-bytes", "2"}, []string{"-audit-rotate-bytes", "-audit-retain-bytes"}},
		{"stream knobs with stream off", []string{"-stream=false", "-stream-window", "2s", "-stream-hop", "500ms", "-stream-max-sessions", "3", "-stream-idle-timeout", "1m"},
			[]string{"-stream-window", "-stream-hop", "-stream-max-sessions", "-stream-idle-timeout"}},
		{"non-positive stream durations", []string{"-stream-window", "0s", "-stream-hop", "-1s", "-stream-idle-timeout", "0s"}, []string{"-stream-window", "-stream-hop", "-stream-idle-timeout"}},
		{"hop longer than window", []string{"-stream-hop", "2s"}, []string{"-stream-hop"}},
		{"log sample above one", []string{"-log-sample", "1.5"}, []string{"-log-sample"}},
		{"log sample below zero", []string{"-log-sample", "-0.1"}, []string{"-log-sample"}},
		{"log knobs with access log off", []string{"-access-log=false", "-log-sample", "0.5", "-slow", "2s"}, []string{"-log-sample", "-slow"}},
		{"drift threshold zero", []string{"-drift-threshold", "0"}, []string{"-drift-threshold"}},
		{"drift threshold above one", []string{"-drift-threshold", "1.5"}, []string{"-drift-threshold"}},
		{"negative sizes and timeouts", []string{"-workers", "-1", "-queue", "-1", "-cache-entries", "-1", "-cache-bytes", "-1", "-max-upload", "-1",
			"-timeout", "-1s", "-drain", "-1s", "-drift-window", "-1", "-stream-max-sessions", "-1"},
			[]string{"-workers", "-queue", "-cache-entries", "-cache-bytes", "-max-upload", "-timeout", "-drain", "-drift-window", "-stream-max-sessions"}},
		{"negative cascade sample", []string{"-cascade-margin", "0", "-cascade-sample", "-1"}, []string{"-cascade-sample"}},
		{"cascade sample with cascade off", []string{"-cascade-sample", "8"}, []string{"-cascade-sample"}},
		{"everything at once", []string{"-peers", "a:1", "-audit-retain-bytes", "1", "-log-sample", "2", "-workers", "-3"},
			[]string{"-peers", "-audit-retain-bytes", "-log-sample", "-workers"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			model := filepath.Join(t.TempDir(), "none.gob")
			start := time.Now()
			err := run(append([]string{"-bootstrap", "-model", model}, row.args...))
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("run took %v to reject, want < 1s", elapsed)
			}
			if err == nil {
				t.Fatal("run accepted the combination")
			}
			msg := err.Error()
			for _, name := range row.want {
				if !strings.Contains(msg, name+" ") {
					t.Errorf("error does not name %s:\n%s", name, msg)
				}
			}
			if n := len(strings.Split(msg, "\n")); n != len(row.want) {
				t.Errorf("error reports %d problems, want %d:\n%s", n, len(row.want), msg)
			}
			if _, err := os.Stat(model); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("rejected boot left a model artifact behind (stat: %v)", err)
			}
		})
	}
}

// TestBootstrapKeepsUnreadableArtifact boots with -bootstrap over a model
// file that exists but does not decode: -bootstrap only fills a missing
// artifact, so run must fail fast, name the file, and leave it untouched
// rather than train a new model over it.
func TestBootstrapKeepsUnreadableArtifact(t *testing.T) {
	model := filepath.Join(t.TempDir(), "bad.gob")
	garbage := []byte("not a model artifact\x00\xff")
	if err := os.WriteFile(model, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := run([]string{"-bootstrap", "-model", model, "-addr", "127.0.0.1:0"})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("run took %v to fail, want < 1s", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), model) {
		t.Fatalf("run error %v, want one naming %s", err, model)
	}
	if got, err := os.ReadFile(model); err != nil || !bytes.Equal(got, garbage) {
		t.Fatalf("artifact changed: %q (read error %v)", got, err)
	}
}

// TestParseAcceptsPinnedInvocations pins the daemon command lines the
// benchmark and the smoke test use: each must validate as is.
func TestParseAcceptsPinnedInvocations(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-model", filepath.Join(dir, "model.gob"),
		"-addr", "127.0.0.1:18080",
		"-admin-addr", "127.0.0.1:18081",
		"-audit", filepath.Join(dir, "audit.jsonl"),
	}
	for _, extra := range [][]string{
		nil,
		{"-cascade-margin", "0", "-quantized"},
		{"-bootstrap"},
		{"-cluster-addr", "127.0.0.1:19190", "-peers", "127.0.0.1:19191,127.0.0.1:19192"},
	} {
		c, err := parse(append(append([]string(nil), base...), extra...), io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if c.model != base[1] || c.addr != base[3] || c.adminAddr != base[5] || c.auditPath != base[7] {
			t.Fatalf("%v: parsed %+v", extra, c)
		}
	}
	c, err := parse(append(base, "-cluster-addr", "127.0.0.1:19190", "-peers", "a:1, b:2"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a:1", "b:2"}; !reflect.DeepEqual(c.cluster.Peers, want) {
		t.Fatalf("-peers parsed as %q, want %q", c.cluster.Peers, want)
	}
}

// TestHelpListsEveryFlagOnceWithItsDefault checks -help against the
// defaults of the packages that own them: every registered flag appears
// exactly once, shows its real default, and no help prose restates one.
func TestHelpListsEveryFlagOnceWithItsDefault(t *testing.T) {
	d := server.DefaultConfig()
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	f64 := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	// want maps each flag to the default -help must show ("" for a zero
	// value, which the flag package does not print).
	want := map[string]string{
		"model": "", "bootstrap": "", "reload": "true", "addr": `"127.0.0.1:8080"`, "admin-addr": "", "drain": "30s",
		"workers": strconv.Itoa(runtime.GOMAXPROCS(0)), "queue": "",
		"max-upload": i64(d.MaxUploadBytes), "timeout": d.RequestTimeout.String(),
		"cache-entries": strconv.Itoa(d.CacheEntries), "cache-bytes": i64(d.CacheBytes),
		"access-log": "true", "log-sample": f64(*d.LogSampleRate), "slow": d.SlowRequestThreshold.String(),
		"audit": "", "audit-rotate-bytes": i64(64 << 20), "audit-retain-bytes": i64(256 << 20),
		"drift-threshold": f64(d.Drift.Threshold), "drift-window": strconv.Itoa(d.Drift.WindowN),
		"cascade-margin": "-1", "cascade-sample": "16", "quantized": "",
		"stream": "true", "stream-window": stream.DefaultWindow.String(), "stream-hop": stream.DefaultHop.String(),
		"stream-max-sessions": strconv.Itoa(stream.DefaultMaxSessions), "stream-idle-timeout": stream.DefaultIdleTimeout.String(),
		"cluster-addr": "", "cluster-self": "", "peers": "",
	}
	if len(want) != 31 {
		t.Fatalf("table lists %d flags, the daemon has 31", len(want))
	}

	var out strings.Builder
	if _, err := parse([]string{"-help"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-help: err = %v, want flag.ErrHelp", err)
	}
	// PrintDefaults starts each flag's entry with "  -name".
	entries := strings.Split(out.String(), "\n  -")[1:]
	if len(entries) != len(want) {
		t.Fatalf("-help lists %d flags, want %d:\n%s", len(entries), len(want), out.String())
	}
	seen := map[string]bool{}
	for _, entry := range entries {
		name := strings.FieldsFunc(entry, func(r rune) bool { return r == ' ' || r == '\n' })[0]
		def, ok := want[name]
		switch {
		case !ok:
			t.Errorf("-help lists unexpected flag -%s", name)
		case seen[name]:
			t.Errorf("-help lists -%s twice", name)
		case def == "" && strings.Contains(entry, "default"):
			t.Errorf("-%s: want no default shown:\n%s", name, entry)
		case def != "" && (strings.Count(entry, "default") != 1 || !strings.HasSuffix(strings.TrimSpace(entry), "(default "+def+")")):
			t.Errorf("-%s: want its default %s shown once, at the end:\n%s", name, def, entry)
		}
		seen[name] = true
	}
}
