package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"reorder/internal/campaign"
	"reorder/internal/campaign/dist"
	"reorder/internal/experiments"
	"reorder/internal/obs"
)

// passResult is the JSON line one pass prints. ReadyUnixNs lets the driver
// measure set-up from process launch.
type passResult struct {
	ReadyUnixNs int64   `json:"ready_unix_ns"`
	RunS        float64 `json:"run_s"`
	// Units is the work list length: targets, or experiment runs.
	Units int `json:"units"`
	// ErrorRecords counts emitted records carrying a terminal error.
	ErrorRecords int               `json:"error_records"`
	Problems     []string          `json:"problems,omitempty"`
	SHA256       map[string]string `json:"sha256,omitempty"`
	E1           float64           `json:"e1_correct_frac,omitempty"`

	SelfMaxRSSKB  int64         `json:"self_maxrss_kb"`
	Workers       []workerUsage `json:"workers,omitempty"`
	WorkersJoined int           `json:"workers_joined"`

	FS         string `json:"fs"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// workerUsage is one spawned worker process's exit status and rusage.
type workerUsage struct {
	Exit     int     `json:"exit"`
	CPUS     float64 `json:"cpu_s"`
	MaxRSSKB int64   `json:"maxrss_kb"`
}

func passMain(args []string) error {
	var traced bool
	var round int
	c, err := parseFlags("pass", args, func(fs *flag.FlagSet) {
		fs.BoolVar(&traced, "traced", false, "attach a telemetry registry and record spans")
		fs.IntVar(&round, "round", 0, "experiments: run the drivers at the seed of this round")
	})
	if err != nil {
		return err
	}
	res := &passResult{GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	tr := newTracer(traced)
	if isCampaign(c.workload) {
		err = campaignPass(c, tr, res)
	} else {
		err = experimentsPass(experimentSeed(c.seed, round), tr, res)
	}
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.SelfMaxRSSKB = selfMaxRSSKB()
	if err := tr.write(c.workload); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	return emit(res)
}

// campaignPass runs the workload's campaign once, in process or through a
// coordinator and spawned workers, and verifies the flushed output.
func campaignPass(c common, tr *tracer, res *passResult) error {
	setup := tr.begin("setup", -1)
	sp := tr.begin("campaign.Enumerate", setup)
	ts, _, err := workloadTargets(c.workload, c.seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	dir, err := runDir(c.workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res.FS = fsType(dir)
	res.Units = len(ts)
	cfg := campaignConfig(ts, campaignSamples, dir)
	if tr != nil {
		cfg.Obs = obs.NewCampaign(workers)
	}
	var fl *fleet
	if c.workload == "dist-spawn2" {
		sp := tr.begin("dist.Spawn", setup)
		fl, err = startFleet(c, dir)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	tr.end(setup)
	res.ReadyUnixNs = time.Now().UnixNano()

	runStart := time.Now()
	run := tr.begin("run", -1)
	var sum *campaign.Summary
	if fl != nil {
		sp := tr.begin("dist.Serve", run)
		sum, err = fl.serve(cfg)
		tr.end(sp)
	} else {
		sp := tr.begin("campaign.Run", run)
		sum, err = campaign.Run(cfg)
		tr.end(sp)
	}
	if err == nil {
		sp := tr.begin("verify", run)
		res.SHA256, res.ErrorRecords, err = verifyCampaign(cfg, sum)
		tr.end(sp)
	}
	tr.end(run)
	res.RunS = time.Since(runStart).Seconds()
	if fl != nil {
		res.Workers = fl.wait(err != nil)
		res.WorkersJoined = fl.log.joined()
	}
	return err
}

// campaignConfig is cmd/campaign's default configuration at 2 workers with
// JSONL and CSV sinks in dir. The files must not exist yet: on ext4,
// truncating an existing file makes its close start writeback, and the
// later unlink waits for it.
func campaignConfig(ts []campaign.Target, samples int, dir string) campaign.Config {
	return campaign.Config{
		Targets: ts, Samples: samples, Workers: workers, Retries: retries, Backoff: backoff,
		OutputPath: filepath.Join(dir, "out.jsonl"),
		CSVPath:    filepath.Join(dir, "out.csv"),
	}
}

// verifyCampaign checks that the flushed sinks hold exactly one record per
// target, in index order, and returns the digests of the JSONL, the CSV and
// the text summary cmd/campaign prints, plus the terminal-error count.
func verifyCampaign(cfg campaign.Config, sum *campaign.Summary) (map[string]string, int, error) {
	n := len(cfg.Targets)
	jsonl, err := os.ReadFile(cfg.OutputPath)
	if err != nil {
		return nil, 0, err
	}
	errRecords, i := 0, 0
	var prefix []byte
	for rest := jsonl; len(rest) > 0; i++ {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return nil, 0, fmt.Errorf("jsonl: record %d is not newline-terminated", i)
		}
		prefix = strconv.AppendInt(append(prefix[:0], `{"index":`...), int64(i), 10)
		if !bytes.HasPrefix(line, append(prefix, ',')) {
			return nil, 0, fmt.Errorf("jsonl: record %d is out of index order", i)
		}
		if bytes.Contains(line, []byte(`"error":"`)) {
			errRecords++
		}
		rest = next
	}
	if i != n {
		return nil, 0, fmt.Errorf("jsonl: %d records for %d targets", i, n)
	}
	csv, err := os.ReadFile(cfg.CSVPath)
	if err != nil {
		return nil, 0, err
	}
	if rows := bytes.Count(csv, []byte{'\n'}); rows != n+1 {
		return nil, 0, fmt.Errorf("csv: %d lines for %d targets and a header", rows, n)
	}
	if sum.Targets != n || sum.Errors != errRecords {
		return nil, 0, fmt.Errorf("summary: %d targets, %d errors; output has %d records, %d errors",
			sum.Targets, sum.Errors, n, errRecords)
	}
	var text bytes.Buffer
	sum.WriteText(&text)
	return map[string]string{
		"jsonl": digest(jsonl), "csv": digest(csv), "summary": digest(text.Bytes()),
	}, errRecords, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// experimentsPass runs the experiment drivers at one seed.
func experimentsPass(seed uint64, tr *tracer, res *passResult) error {
	res.FS = fsType(".")
	res.ReadyUnixNs = time.Now().UnixNano()
	runStart := time.Now()
	run := tr.begin("run", -1)
	h := sha256.New()
	e1, _, errs := runExperiments(seed, h, tr, run)
	tr.end(run)
	res.RunS = time.Since(runStart).Seconds()
	res.E1 = e1
	res.Units = len(experimentNames)
	for _, err := range errs {
		res.Problems = append(res.Problems, err.Error())
	}
	res.SHA256 = map[string]string{"reports": hex.EncodeToString(h.Sum(nil))}
	return nil
}

// experimentNames are the experiment runs of one seed, in call order.
var experimentNames = []string{
	"validation", "survey", "agreement", "timeseries", "baselines", "cooperative", "chaos", "congestion",
}

// runExperiments makes the calls cmd/validate, cmd/survey -all and
// cmd/campaign -chaos / -congestion make, at one seed and 2 workers,
// writing every report to w. It returns the E1 correct fraction, each
// call's wall time, and the calls that failed.
func runExperiments(seed uint64, w io.Writer, tr *tracer, parent int) (float64, map[string]time.Duration, []error) {
	times := map[string]time.Duration{}
	var errs []error
	var e1 float64
	call := func(name string, f func() error) {
		sp := tr.begin("experiments."+name, parent)
		start := time.Now()
		err := f()
		times[name] = time.Since(start)
		tr.end(sp)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s (seed %d): %w", name, seed, err))
		}
	}
	call("validation", func() error {
		cfg := experiments.DefaultValidation()
		cfg.Seed, cfg.Workers = seed, workers
		rep := experiments.RunValidation(cfg)
		if len(rep.Runs) != 114 {
			return fmt.Errorf("%d runs, want the paper's 114", len(rep.Runs))
		}
		e1 = rep.CorrectFraction()
		rep.WriteText(w)
		return nil
	})
	var survey *experiments.SurveyReport
	call("survey", func() error {
		cfg := experiments.DefaultSurvey()
		cfg.Seed, cfg.Workers = seed, workers
		survey = experiments.RunSurvey(cfg)
		if len(survey.Hosts) != cfg.Hosts {
			return fmt.Errorf("%d hosts surveyed, want %d", len(survey.Hosts), cfg.Hosts)
		}
		survey.WriteText(w)
		return nil
	})
	call("agreement", func() error {
		experiments.RunAgreement(survey, 0.999).WriteText(w)
		return nil
	})
	call("timeseries", func() error {
		cfg := experiments.DefaultTimeSeries()
		cfg.Seed = seed
		rep, err := experiments.RunTimeSeries(cfg)
		if err == nil {
			rep.WriteText(w)
		}
		return err
	})
	call("baselines", func() error {
		cfg := experiments.DefaultBaselines()
		cfg.Seed = seed
		rep, err := experiments.RunBaselines(cfg)
		if err == nil {
			rep.WriteText(w)
		}
		return err
	})
	call("cooperative", func() error {
		cfg := experiments.DefaultCooperative()
		cfg.Seed = seed
		rep, err := experiments.RunCooperative(cfg)
		if err == nil {
			rep.WriteText(w)
		}
		return err
	})
	call("chaos", func() error {
		rep, err := experiments.RunChaos(experiments.ChaosConfig{Workers: workers, Seed: seed})
		if err == nil {
			rep.WriteText(w)
		}
		return err
	})
	call("congestion", func() error {
		rep, err := experiments.RunCongestion(experiments.CongestionConfig{Workers: workers, Seed: seed})
		if err == nil {
			rep.WriteText(w)
		}
		return err
	})
	return e1, times, errs
}

// fleet is a coordinator listener plus its spawned worker processes.
type fleet struct {
	ln   net.Listener
	cmds []*exec.Cmd
	log  *joinLog
}

// startFleet listens on a unix socket in dir and spawns the workers, as
// cmd/campaign -spawn 2 does.
func startFleet(c common, dir string) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr := filepath.Join(dir, "coord.sock")
	ln, err := dist.Listen(addr)
	if err != nil {
		return nil, err
	}
	args := []string{"worker", "-workload", c.workload, "-seed", strconv.FormatUint(c.seed, 10), "-connect", addr}
	cmds, err := dist.Spawn(workers, exe, args, os.Stderr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &fleet{ln: ln, cmds: cmds, log: &joinLog{}}, nil
}

// serve runs the coordinator over the fleet's listener with cmd/campaign's
// dist defaults (span size, window and lease timeout left to dist).
func (f *fleet) serve(cfg campaign.Config) (*campaign.Summary, error) {
	return dist.Serve(dist.Config{
		Campaign: cfg, Listener: f.ln, ExpectWorkers: workers, Log: f.log,
	})
}

// workerGrace bounds how long wait lets workers finish. A worker that
// joins after Serve returned redials the closed socket for about 20s
// before it exits non-zero; that exit is reported, not hidden.
const workerGrace = 30 * time.Second

// wait reaps the workers, killing them at once when kill is set (a failed
// serve can leave them blocked) or after workerGrace, and returns each
// one's exit status and rusage.
func (f *fleet) wait(kill bool) []workerUsage {
	done := make(chan struct{})
	go func() {
		for _, cmd := range f.cmds {
			cmd.Wait() // the exit status is read from ProcessState below
		}
		close(done)
	}()
	timer := time.NewTimer(workerGrace)
	defer timer.Stop()
	if kill {
		f.kill()
	}
	select {
	case <-done:
	case <-timer.C:
		f.kill()
		<-done
	}
	usage := make([]workerUsage, len(f.cmds))
	for i, cmd := range f.cmds {
		ps := cmd.ProcessState
		usage[i] = workerUsage{Exit: ps.ExitCode(), CPUS: (ps.UserTime() + ps.SystemTime()).Seconds()}
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			usage[i].MaxRSSKB = ru.Maxrss
		}
	}
	return usage
}

func (f *fleet) kill() {
	for _, cmd := range f.cmds {
		cmd.Process.Kill()
	}
}

// joinLog is the coordinator's Config.Log: it counts the coordinator's
// "dist: worker N connected (addr)" notices and passes every other notice
// to stderr.
type joinLog struct {
	mu sync.Mutex
	n  int
}

func (l *joinLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if bytes.Contains(p, []byte(" connected (")) {
		l.n++
		return len(p), nil
	}
	return os.Stderr.Write(p)
}

func (l *joinLog) joined() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func workerMain(args []string) error {
	var connect string
	c, err := parseFlags("worker", args, func(fs *flag.FlagSet) {
		fs.StringVar(&connect, "connect", "", "coordinator address")
	})
	if err != nil {
		return err
	}
	ts, _, err := workloadTargets(c.workload, c.seed)
	if err != nil {
		return err
	}
	// As under cmd/campaign -spawn: the coordinator owns the drain.
	signal.Ignore(os.Interrupt)
	return dist.RunWorker(dist.WorkerConfig{
		Connect: connect, Targets: ts, Samples: samplesFor(c.workload), Obs: obs.NewCampaign(1),
	})
}

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 at the top
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil tracer records nothing.
// Spans are recorded from the main goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
}

// write stores the spans as JSONL under .bench_build/trace.
func (t *tracer) write(tag string) error {
	if t == nil {
		return nil
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("%s-%d.jsonl", tag, os.Getpid())
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}
