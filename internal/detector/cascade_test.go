package detector

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
)

// fixedRecognizer always hears the same text, so similarity scores are
// fully controlled by the test; params is its work weight.
type fixedRecognizer struct {
	name   string
	text   string
	params int
}

func (f *fixedRecognizer) Name() string                           { return f.name }
func (f *fixedRecognizer) Transcribe(*audio.Clip) (string, error) { return f.text, nil }
func (f *fixedRecognizer) Parameters() int                        { return f.params }

// minRule flags a vector adversarial when any similarity is under 0.5:
// a classifier the table below can reason about by eye.
type minRule struct{}

func (minRule) Name() string                 { return "min<0.5" }
func (minRule) Fit([][]float64, []int) error { return nil }
func (minRule) Predict(x []float64) (int, error) {
	for _, v := range x {
		if v < 0.5 {
			return 1, nil
		}
	}
	return 0, nil
}
func (r minRule) Score(x []float64) (float64, error) {
	p, err := r.Predict(x)
	return float64(p), err
}

// column builds a 12-row pool column (the quick-scale artifact's pool
// size): the first hi rows score 0.9, the rest 0.5.
func column(hi int) []float64 {
	col := make([]float64, 12)
	for i := range col {
		col[i] = 0.5
		if i < hi {
			col[i] = 0.9
		}
	}
	return col
}

func rowsOf(cols ...[]float64) [][]float64 {
	rows := make([][]float64, len(cols[0]))
	for i := range rows {
		for _, c := range cols {
			rows[i] = append(rows[i], c[i])
		}
	}
	return rows
}

// TestCascadeLeaderElection pins the expected-cost rule on synthetic
// pools: p decides, the work weight breaks ties in p, configured order
// breaks ties in both, unreachable margins never lead, and an explicit
// margin is the margin every p is computed against.
func TestCascadeLeaderElection(t *testing.T) {
	// Flagged calibration vectors top out at 0.6 on either engine:
	// auto-calibrated margins are 0.62 on both.
	lowAE := [][]float64{{0.6, 0.2}, {0.2, 0.6}, {0.3, 0.3}}
	cases := []struct {
		name          string
		weights       [2]int
		benign        [][]float64
		ae            [][]float64
		margin        float64
		leader        string
		margins       [2]float64
		shares        [2]float64
		shortCircuits bool // a consistent clip short-circuits
	}{
		{"highest p wins", [2]int{10, 10}, rowsOf(column(6), column(11)), lowAE, 0,
			"B", [2]float64{0.62, 0.62}, [2]float64{6.0 / 12, 11.0 / 12}, true},
		{"highest p wins against a lighter engine", [2]int{10, 14}, rowsOf(column(6), column(11)), lowAE, 0,
			"B", [2]float64{0.62, 0.62}, [2]float64{6.0 / 12, 11.0 / 12}, true},
		{"equal p: lighter engine", [2]int{100, 50}, rowsOf(column(9), column(9)), lowAE, 0,
			"B", [2]float64{0.62, 0.62}, [2]float64{0.75, 0.75}, true},
		{"equal p, equal weight: configured order", [2]int{50, 50}, rowsOf(column(9), column(9)), lowAE, 0,
			"A", [2]float64{0.62, 0.62}, [2]float64{0.75, 0.75}, true},
		{"unreachable margin cannot lead", [2]int{10, 10}, rowsOf(column(12), column(3)),
			[][]float64{{1.0, 0.2}, {0.2, 0.6}}, 0,
			"B", [2]float64{1.02, 0.62}, [2]float64{0, 0.25}, true},
		{"all margins above 1: always full", [2]int{10, 10}, rowsOf(column(12), column(12)),
			[][]float64{{1.0, 0.0}, {0.0, 1.0}}, 0,
			"A", [2]float64{1.02, 1.02}, [2]float64{0, 0}, false},
		{"explicit margin is used for every p", [2]int{10, 10}, rowsOf(column(6), column(11)), lowAE, 0.95,
			"A", [2]float64{0.95, 0.95}, [2]float64{0, 0}, true},
		{"explicit low margin", [2]int{10, 10}, rowsOf(column(6), column(11)), lowAE, 0.45,
			"A", [2]float64{0.45, 0.45}, [2]float64{1, 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(
				&fixedRecognizer{name: "TGT", text: "open the door"},
				[]asr.Recognizer{
					&fixedRecognizer{name: "A", text: "open the door", params: tc.weights[0]},
					&fixedRecognizer{name: "B", text: "open the door", params: tc.weights[1]},
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			d.Classifier = minRule{}
			if err := d.EnableCascade(CascadeConfig{Margin: tc.margin}, tc.benign, tc.ae); err != nil {
				t.Fatal(err)
			}
			c := d.Cascade
			cands := c.Candidates()
			if got := cands[c.Order()[0]].Engine; got != tc.leader {
				t.Fatalf("leader %s, want %s (table %+v)", got, tc.leader, cands)
			}
			total := tc.weights[0] + tc.weights[1]
			for j, cand := range cands {
				if math.Abs(cand.Margin-tc.margins[j]) > 1e-12 || math.Abs(cand.ShortCircuitShare-tc.shares[j]) > 1e-12 {
					t.Errorf("%s: margin %v p %v, want %v %v", cand.Engine, cand.Margin, cand.ShortCircuitShare, tc.margins[j], tc.shares[j])
				}
				want := float64(tc.weights[j]) + (1-tc.shares[j])*float64(total-tc.weights[j])
				if cand.Weight != tc.weights[j] || math.Abs(cand.ExpectedCost-want) > 1e-9 {
					t.Errorf("%s: weight %d cost %v, want %d %v", cand.Engine, cand.Weight, cand.ExpectedCost, tc.weights[j], want)
				}
			}
			if got := cands[c.Order()[0]].Margin; c.Margin() != got {
				t.Errorf("Margin() %v is not the leader's %v", c.Margin(), got)
			}
			// Every engine hears the target's text: all scores are 1.0,
			// which short-circuits under any reachable margin.
			dec, err := d.Detect(context.Background(), audio.NewClip(8000, 800))
			if err != nil {
				t.Fatal(err)
			}
			if dec.Cascade.ShortCircuit != tc.shortCircuits {
				t.Fatalf("short-circuit %v, want %v (%+v)", dec.Cascade.ShortCircuit, tc.shortCircuits, dec.Cascade)
			}
			if tc.shortCircuits && (len(dec.Cascade.EnginesRun) != 1 || dec.Cascade.EnginesRun[0] != tc.leader) {
				t.Errorf("short-circuit ran %v, want only the leader %s", dec.Cascade.EnginesRun, tc.leader)
			}
		})
	}
}

func syntheticRows(n int, mean, jitter float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{
			clamp01(mean + rng.NormFloat64()*jitter),
			clamp01(mean + rng.NormFloat64()*jitter),
		}
	}
	return rows
}

// TestCalibrateFloors pins the early-exit floor calibration against the
// synthetic score distribution.
func TestCalibrateFloors(t *testing.T) {
	d, err := New(
		&fixedRecognizer{name: "TGT", text: "open the door"},
		[]asr.Recognizer{
			&fixedRecognizer{name: "A", text: "open the door"},
			&fixedRecognizer{name: "B", text: "open the door"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	benignX := syntheticRows(200, 0.95, 0.03, 11)
	aeX := syntheticRows(200, 0.35, 0.08, 22)
	if err := d.Train(benignX, aeX); err != nil {
		t.Fatal(err)
	}
	floors, err := d.CalibrateFloors(benignX, aeX, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(floors) != 2 {
		t.Fatalf("%d floors for 2 auxiliaries", len(floors))
	}
	for j, f := range floors {
		if f <= 0.5 || f >= 1 {
			t.Errorf("floor[%d] = %v, want inside (0.5, 1) for benign scores near 0.95", j, f)
		}
		// Every classifier-benign calibration score must sit above the
		// floor by at least the slack.
		for _, row := range benignX {
			pred, err := d.Classifier.Predict(row)
			if err != nil {
				t.Fatal(err)
			}
			if pred == 0 && row[j] < f {
				t.Fatalf("benign calibration score %v below floor %v", row[j], f)
			}
		}
	}
	if _, err := d.CalibrateFloors(nil, nil, 0.05); err == nil {
		t.Fatal("floor calibration with no data should error")
	}
}
