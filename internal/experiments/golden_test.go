package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// Report goldens: SHA-256 of each driver's WriteText output at a small
// fixed configuration, captured before the chaos, congestion and agreement
// drivers were merged into one paired-comparison pass and the index sweeps
// onto one fan-out helper. Every report must match at workers 1 and 4, so
// "identical" means identical to the separate drivers, not merely
// self-consistent.
var reportGoldens = []struct {
	name string
	sha  string
	run  func(t *testing.T, workers int) interface{ WriteText(io.Writer) }
}{
	{"chaos", "9ed2fcc8a793f12caf55cb82ab13ce3c31b90e19162be49f5e990f60e6ff0368", func(t *testing.T, workers int) interface{ WriteText(io.Writer) } {
		rep, err := RunChaos(ChaosConfig{Replicas: 6, Samples: 8, Workers: workers, Seed: 3, Confidence: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}},
	{"congestion", "ccf192675406bd768f38d435e3595fcf0fa4bb058207fe9d909aa728492de5ce", func(t *testing.T, workers int) interface{ WriteText(io.Writer) } {
		rep, err := RunCongestion(CongestionConfig{Replicas: 5, Samples: 8, Workers: workers, Seed: 11, Confidence: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}},
	{"agreement", "2de2e1aed66ab7ed8413e082de43eb04cb4db43de8d05be1cdbcb238e8819915", func(t *testing.T, workers int) interface{ WriteText(io.Writer) } {
		cfg := QuickSurvey()
		cfg.Workers = workers
		return RunAgreement(RunSurvey(cfg), 0.999)
	}},
	{"validation", "ff0a906ddabc83969dff7b71cf0c75ea559f9f5dca40aca56c17571f3a76b1ba", func(t *testing.T, workers int) interface{ WriteText(io.Writer) } {
		cfg := QuickValidation()
		cfg.Workers = workers
		return RunValidation(cfg)
	}},
	{"gapsweep", "33f131f6e9b4ed8b3febf5b87de319148239db5e1b6c7e716fa121d1bf956c7d", func(t *testing.T, workers int) interface{ WriteText(io.Writer) } {
		cfg := QuickGapSweep()
		cfg.Workers = workers
		rep, err := RunGapSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}},
	{"mechanisms", "44fbcb0554f88a08c3889e13a2833d6ea3aa27799e9c000941415731fc1acc6f", func(t *testing.T, workers int) interface{ WriteText(io.Writer) } {
		cfg := QuickMechanisms()
		cfg.Workers = workers
		rep, err := RunMechanisms(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}},
}

// TestReportGoldens pins every report's bytes at workers 1 and 4.
func TestReportGoldens(t *testing.T) {
	for _, g := range reportGoldens {
		for _, workers := range []int{1, 4} {
			var buf bytes.Buffer
			g.run(t, workers).WriteText(&buf)
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.sha {
				t.Errorf("%s workers=%d: report sha256 = %s, want %s\n%s", g.name, workers, got, g.sha, buf.String())
			}
		}
	}
}
