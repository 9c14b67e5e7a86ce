package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"circuitstart/internal/scenario"
	"circuitstart/internal/serve"
	"circuitstart/internal/spec"
	"circuitstart/internal/sweep"
)

// sweepWorkers is the daemon's sweep worker count: one per CPU of the
// 2-CPU reference box.
const sweepWorkers = 2

// sweepServe is the sweep_serve workload: one closed-loop HTTP client
// against an in-process `circuitsim serve` daemon on loopback. A round
// starts a fresh daemon (so the cold sweep really is cold), submits a
// population sweep over faults × seeds, streams its CSV rows, then
// submits the same grid with the seeds shifted by one, which replays
// 8 of its 12 points from the daemon's point cache.
type sweepServe struct {
	led      *ledger
	inputs   []sweepInput
	circuits int
	d        *daemon // set-up daemon, used by the warm-up round

	sessions []session

	// traced
	plan      trialPlan
	want      []outcome
	untrMS    float64
	layers    trialLayers
	engineRun bool
	engine    engineLayers
	parseUS   []float64
	keyUS     []float64
}

// sweepInput is one input: the cold and the overlapping spec, and the
// cold CSV of its first run.
type sweepInput struct {
	cold, overlap []byte
	coldF, overF  *spec.File
	firstCold     []byte
}

// sweepSpec renders the workload's grid for three consecutive seeds
// from first. The base seed is part of the base's content hash, so
// both sweeps of a round share it and only the seeds axis moves.
func sweepSpec(base, first int64, short bool) []byte {
	relays, circuits, size := 40, 24, 300000
	if short {
		relays, circuits, size = 12, 6, 50000
	}
	return []byte(fmt.Sprintf(`{
  "name": "perfbench-sweep-serve",
  "seed": %d,
  "base": {
    "kind": "population", "arms": ["circuitstart", "slowstart"],
    "relays": %d, "circuits": %d, "switches": 4,
    "size_dist": "lognormal:%d:0.5", "poisson_rate": 20, "train": 8,
    "scheduler": "ewma", "max_circuits": %d, "kill_policy": "kill-oldest"
  },
  "dimensions": [
    {"faults": ["none", "burstloss", "hang", "flaky"]},
    {"seeds": [%d, %d, %d]}
  ]
}`, base, relays, circuits, size, circuits/2, first, first+1, first+2))
}

func newSweepServe(cfg config, led *ledger) (bench, error) {
	b := &sweepServe{led: led}
	for k := 0; k < inputCount(cfg, 5); k++ {
		seed := inputSeed(cfg.seed, k)
		in := sweepInput{cold: sweepSpec(seed, seed, cfg.short), overlap: sweepSpec(seed, seed+1, cfg.short)}
		var err error
		if in.coldF, err = parseSpec(in.cold); err != nil {
			return nil, err
		}
		if in.overF, err = parseSpec(in.overlap); err != nil {
			return nil, err
		}
		b.circuits = in.coldF.Base.Circuits
		b.inputs = append(b.inputs, in)
	}
	var err error
	if b.d, err = startDaemon(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *sweepServe) numInputs() int { return len(b.inputs) }

// parseSpec parses and validates a spec down to its grid points.
func parseSpec(body []byte) (*spec.File, error) {
	f, err := spec.Parse(body)
	if err != nil {
		return nil, err
	}
	sw, err := f.Sweep()
	if err != nil {
		return nil, err
	}
	if _, err := sw.Points(); err != nil {
		return nil, err
	}
	return f, nil
}

func (b *sweepServe) close() {
	if b.d != nil {
		b.d.stop()
		b.d = nil
	}
}

// daemon is an in-process sweep daemon on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.NewServer(serve.Options{SweepWorkers: sweepWorkers}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/v1/healthz")
	if err == nil {
		var h struct {
			OK bool `json:"ok"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && (resp.StatusCode != http.StatusOK || !h.OK) {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the listener and the executor pool down and waits for
// both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// jobStatus mirrors the fields of the daemon's job status the client
// reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Points   int    `json:"points"`
	Cached   int    `json:"cached"`
	Computed int    `json:"computed"`
}

func (d *daemon) do(req *http.Request, want int) (*http.Response, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return resp, nil
}

func (d *daemon) submit(body []byte) (jobStatus, error) {
	var st jobStatus
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.do(req, http.StatusAccepted)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (d *daemon) status(id string) (jobStatus, error) {
	var st jobStatus
	req, err := http.NewRequest(http.MethodGet, d.url+"/v1/sweeps/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := d.do(req, http.StatusOK)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// stream reads a job's CSV rows to the end, noting when each line
// arrived.
func (d *daemon) stream(id string) ([]byte, []time.Time, error) {
	req, err := http.NewRequest(http.MethodGet, d.url+"/v1/sweeps/"+id+"/rows", nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept", "text/csv")
	resp, err := d.do(req, http.StatusOK)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	var at []time.Time
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			buf.Write(line)
			at = append(at, time.Now())
		}
		if err == io.EOF {
			return buf.Bytes(), at, nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// session is one round: a cold sweep and an overlapping one.
type session struct {
	coldCSV, overCSV    []byte
	start               time.Time
	firstRow, coldEnd   time.Time
	overStart, overEnd  time.Time
	submitMS            []float64
	rowGapMS            []float64
	overCached, overPts int
}

// sweep submits one spec, streams its rows and fetches its final
// status, counting each HTTP request as an operation.
func (b *sweepServe) sweep(d *daemon, body []byte, s *session) ([]byte, []time.Time, jobStatus, error) {
	t0 := time.Now()
	st, err := d.submit(body)
	b.led.record("POST /v1/sweeps", err)
	if err != nil {
		return nil, nil, st, err
	}
	s.submitMS = append(s.submitMS, float64(time.Since(t0))/1e6)
	csv, at, err := d.stream(st.ID)
	b.led.record("GET rows", err)
	if err != nil {
		return nil, nil, st, err
	}
	fin, err := d.status(st.ID)
	if err == nil && fin.State != serve.StateDone {
		err = fmt.Errorf("sweep %s ended %s", fin.ID, fin.State)
	}
	b.led.record("GET status", err)
	return csv, at, fin, err
}

func (b *sweepServe) session(d *daemon, in *sweepInput) (session, error) {
	var s session
	s.start = time.Now()
	csv, at, fin, err := b.sweep(d, in.cold, &s)
	if err != nil {
		return s, err
	}
	if len(at) < 2 {
		return s, fmt.Errorf("cold sweep streamed no rows")
	}
	s.coldCSV, s.firstRow, s.coldEnd = csv, at[1], at[len(at)-1]
	// Gaps between grid points: a point's arms arrive together, so
	// only a row opening a new point index starts a gap.
	lines := bytes.SplitAfter(csv, []byte("\n"))
	prev, prevAt := "", at[1]
	for i := 1; i < len(at) && i < len(lines); i++ {
		pt, _, _ := strings.Cut(string(lines[i]), ",")
		if pt != prev && prev != "" {
			s.rowGapMS = append(s.rowGapMS, float64(at[i].Sub(prevAt))/1e6)
		}
		if pt != prev {
			prev, prevAt = pt, at[i]
		}
	}
	if fin.Cached != 0 || fin.Computed != fin.Points {
		b.led.record("cold sweep", fmt.Errorf("cached %d computed %d of %d points, want a cold run", fin.Cached, fin.Computed, fin.Points))
	}
	b.checkRows("cold", csv, nil)

	s.overStart = time.Now()
	csv, at, fin, err = b.sweep(d, in.overlap, &s)
	if err != nil {
		return s, err
	}
	s.overCSV, s.overEnd = csv, at[len(at)-1]
	s.overCached, s.overPts = fin.Cached, fin.Points
	if want := 2 * fin.Points / 3; fin.Cached != want {
		b.led.record("overlap sweep", fmt.Errorf("cache replayed %d of %d points, want %d", fin.Cached, fin.Points, want))
	}
	b.checkRows("overlap", csv, s.coldCSV)
	return s, nil
}

// checkRows checks every grid point of a streamed CSV: no incomplete
// transfer on a fault-free point (a faulted one may leave a transfer
// unfinished at the horizon; its faults explain it), every circuit
// accounted for as completed, incomplete, killed, refused or abandoned,
// no misaddressed frame, and — when cold
// is given — rows of points shared with the cold sweep byte-identical
// to the cold rows (bar the grid index).
func (b *sweepServe) checkRows(what string, csv, cold []byte) {
	header, rows, err := splitCSV(csv)
	if err != nil {
		b.led.record(what+" rows", err)
		return
	}
	col := columns(header)
	coldRows := map[string]string{}
	if cold != nil {
		_, cr, _ := splitCSV(cold)
		for _, r := range cr {
			coldRows[strings.Join(r[1:4], ",")] = strings.Join(r[1:], ",")
		}
	}
	perPoint := map[string]error{}
	var order []string
	for _, r := range rows {
		pt := r[0]
		if _, ok := perPoint[pt]; !ok {
			order = append(order, pt)
			perPoint[pt] = nil
		}
		if perPoint[pt] != nil {
			continue
		}
		get := func(name string) int64 {
			v, _ := strconv.ParseInt(r[col[name]], 10, 64)
			return v
		}
		accounted := get("n") + get("incomplete") + get("killed") + get("adm_rejected") + get("abandoned")
		switch {
		case len(r) != len(header):
			perPoint[pt] = fmt.Errorf("row has %d fields, header %d", len(r), len(header))
		case get("incomplete") != 0 && r[col["faults"]] == "none":
			perPoint[pt] = fmt.Errorf("point %s arm %s: %d incomplete transfers without faults", pt, r[col["arm"]], get("incomplete"))
		case get("unknown_dst") != 0 || get("unroutable") != 0:
			perPoint[pt] = fmt.Errorf("point %s arm %s: unknown_dst %d unroutable %d", pt, r[col["arm"]], get("unknown_dst"), get("unroutable"))
		case accounted < int64(b.circuits):
			perPoint[pt] = fmt.Errorf("point %s arm %s: only %d of %d circuits accounted for", pt, r[col["arm"]], accounted, b.circuits)
		}
		if c, ok := coldRows[strings.Join(r[1:4], ",")]; ok && c != strings.Join(r[1:], ",") && perPoint[pt] == nil {
			perPoint[pt] = fmt.Errorf("point %s (%s): replayed row differs from the cold row", pt, strings.Join(r[1:4], ","))
		}
	}
	for _, pt := range order {
		b.led.record(what+" grid point", perPoint[pt])
	}
}

// splitCSV splits the daemon's CSV (no quoted fields) into header and
// rows.
func splitCSV(csv []byte) ([]string, [][]string, error) {
	lines := strings.Split(strings.TrimRight(string(csv), "\n"), "\n")
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("CSV has %d lines", len(lines))
	}
	var rows [][]string
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return strings.Split(lines[0], ","), rows, nil
}

// round runs one session of input k on a fresh daemon (the set-up
// daemon for the first).
func (b *sweepServe) round(k int) (roundSample, error) {
	d := b.d
	b.d = nil
	if d == nil {
		var err error
		if d, err = startDaemon(); err != nil {
			return roundSample{}, err
		}
	}
	defer d.stop()
	in := &b.inputs[k]
	s, err := b.session(d, in)
	if err != nil {
		return roundSample{}, err
	}
	if in.firstCold == nil {
		in.firstCold = s.coldCSV
	}
	b.sessions = append(b.sessions, s)
	return roundSample{
		input:  k,
		wall:   s.overEnd.Sub(s.start),
		first:  s.firstRow.Sub(s.start),
		digest: digestOf(s.coldCSV, s.overCSV),
	}, nil
}

func (b *sweepServe) endToEnd(r *report) {
	// Simulated: the median over every input's cold grid points of each
	// arm's per-point median TTLB.
	var cs, ss []float64
	for _, in := range b.inputs {
		header, rows, err := splitCSV(in.firstCold)
		if err != nil {
			continue
		}
		col := columns(header)
		for _, row := range rows {
			v, _ := strconv.ParseFloat(row[col["ttlb_p50_s"]], 64)
			switch row[col["arm"]] {
			case "circuitstart":
				cs = append(cs, v)
			case "slowstart":
				ss = append(ss, v)
			}
		}
	}
	if m := median(cs); m > 0 {
		r.set("ttlb_p50_s", m, len(cs), "simulated, median over cold grid points of circuitstart p50, every input")
		r.set("ttlb_gain", median(ss)/m, len(ss), "simulated, slowstart / circuitstart, medians over points")
	}
	var cold, over []float64
	for _, s := range b.sessions[1:] { // the warm-up session is not timed
		cold = append(cold, float64(s.coldEnd.Sub(s.start))/1e6)
		over = append(over, float64(s.overEnd.Sub(s.overStart))/1e6)
	}
	r.set("wall_s", median(cold)/1e3, len(cold), "cold submit to its last row")
	r.set("overlap_wall_ms", median(over), len(over), "overlap submit to its last row")
}

func columns(header []string) map[string]int {
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	return col
}

func (b *sweepServe) tracedRound() error {
	if b.want == nil {
		if err := b.prepareTrace(); err != nil {
			return err
		}
	}
	if _, err := b.round(0); err != nil {
		return err
	}
	if !b.engineRun {
		b.engineRun = true
		if err := b.engine.run(b, b.sessions[len(b.sessions)-1]); err != nil {
			return err
		}
	}
	return runTracedTrials(&b.layers, b.plan, b.want, b.led)
}

// prepareTrace times the spec layer and the untraced Runner trial the
// composed trial must reproduce: grid point 0 (no faults), the
// circuitstart arm.
func (b *sweepServe) prepareTrace() error {
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		_, err := spec.Parse(b.inputs[0].cold)
		b.parseUS = append(b.parseUS, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
	}
	f := b.inputs[0].coldF
	sw, err := f.Sweep()
	if err != nil {
		return err
	}
	pts, err := sw.Points()
	if err != nil {
		return err
	}
	hash, err := f.BaseHash()
	if err != nil {
		return err
	}
	dims := sw.DimensionNames()
	for i := 0; i < 20; i++ {
		for _, pt := range pts {
			t0 := time.Now()
			spec.PointKey(hash, dims, pt.Coords)
			b.keyUS = append(b.keyUS, float64(time.Since(t0))/1e3)
		}
	}
	sc := pts[0].Scenario.Clone()
	sc.Arms = sc.Arms[:1]
	if b.plan, err = planFor(sc, sc.Arms[0]); err != nil {
		return err
	}
	t0 := time.Now()
	res, err := scenario.Runner{Workers: 1}.Run(sc)
	b.untrMS = float64(time.Since(t0)) / 1e6
	b.led.record("untraced point-0 trial", err)
	if err != nil {
		return err
	}
	b.want = outcomesOf(&res.Arms[0])
	return nil
}

// engineLayers is the in-process sweep engine pass of a traced run:
// sweep.Engine{Workers: 1} with a timing Sink wrapper and a counting
// Lookup, cold and then overlapping, each compared byte for byte with
// the CSV the daemon streamed.
type engineLayers struct {
	pointMS            []float64
	sinkTime           time.Duration
	rows, rowBytes     int
	computed, replayed int
}

// timingSink times a wrapped sink's Point calls and notes when each
// grid point was emitted.
type timingSink struct {
	inner   sweep.Sink
	el      *engineLayers
	emitted map[int]time.Time
}

func (s *timingSink) Begin(m sweep.Meta) error { return s.inner.Begin(m) }
func (s *timingSink) Flush() error             { return s.inner.Flush() }
func (s *timingSink) Point(pr *sweep.PointResult) error {
	t0 := time.Now()
	err := s.inner.Point(pr)
	s.el.sinkTime += time.Since(t0)
	s.el.rows += len(pr.Arms)
	s.emitted[pr.Point.Index] = t0
	return err
}

// keepSink retains every point's per-arm rows under its PointKey.
type keepSink struct {
	hash string
	dims []string
	rows map[string][]sweep.ArmPoint
}

func (s *keepSink) Begin(m sweep.Meta) error { s.dims = m.Dimensions; return nil }
func (s *keepSink) Flush() error             { return nil }
func (s *keepSink) Point(pr *sweep.PointResult) error {
	s.rows[spec.PointKey(s.hash, s.dims, pr.Point.Coords)] = pr.Arms
	return nil
}

func (el *engineLayers) run(b *sweepServe, s session) error {
	kept := &keepSink{rows: map[string][]sweep.ArmPoint{}}
	for i, pass := range []struct {
		f    *spec.File
		want []byte
	}{{b.inputs[0].coldF, s.coldCSV}, {b.inputs[0].overF, s.overCSV}} {
		sw, err := pass.f.Sweep()
		if err != nil {
			return err
		}
		hash, err := pass.f.BaseHash()
		if err != nil {
			return err
		}
		dims := sw.DimensionNames()
		// The cold pass replays nothing; the overlap pass replays the
		// cold pass's points, which no sink writes any more.
		var replay map[string][]sweep.ArmPoint
		if i > 0 {
			replay = kept.rows
		}
		var csv bytes.Buffer
		var mu sync.Mutex
		started := map[int]time.Time{}
		ts := &timingSink{inner: sweep.NewCSVSink(&csv), el: el, emitted: map[int]time.Time{}}
		eng := sweep.Engine{Workers: 1, Lookup: func(pt sweep.Point) ([]sweep.ArmPoint, bool) {
			mu.Lock()
			defer mu.Unlock()
			arms, ok := replay[spec.PointKey(hash, dims, pt.Coords)]
			if ok {
				el.replayed++
			} else {
				el.computed++
				started[pt.Index] = time.Now()
			}
			return arms, ok
		}}
		sinks := []sweep.Sink{ts}
		if i == 0 {
			kept.hash = hash
			sinks = append(sinks, kept)
		}
		_, err = eng.Run(sw, sinks...)
		b.led.record("in-process sweep", err)
		if err != nil {
			return err
		}
		mu.Lock()
		for idx, t0 := range started {
			el.pointMS = append(el.pointMS, float64(ts.emitted[idx].Sub(t0))/1e6)
		}
		mu.Unlock()
		var diff error
		if !bytes.Equal(csv.Bytes(), pass.want) {
			diff = fmt.Errorf("in-process CSVSink output (%d bytes) differs from the streamed CSV (%d bytes)", csv.Len(), len(pass.want))
		}
		b.led.record("streamed vs in-process CSV", diff)
		if nl := bytes.IndexByte(csv.Bytes(), '\n'); nl >= 0 {
			el.rowBytes += csv.Len() - nl - 1
		}
	}
	return nil
}

func (b *sweepServe) perLayer(r *report, _ roundSample) {
	b.layers.report(r, b.untrMS)
	var stalls, recov, retries, built float64
	if header, rows, err := splitCSV(b.inputs[0].firstCold); err == nil {
		col := columns(header)
		for _, row := range rows {
			f := func(name string) float64 { v, _ := strconv.ParseFloat(row[col[name]], 64); return v }
			stalls += f("stalls")
			recov += f("recoveries")
			retries += f("retries")
			built += f("built")
		}
	}
	r.set("scenario.stalls", stalls, 1, "input 0's cold grid, all points and arms")
	r.set("scenario.recoveries", recov, 1, "")
	r.set("scenario.retries", retries, 1, "")
	r.set("scenario.churn_built", built, 1, "")
	el := &b.engine
	r.set("sweep.point_ms_p50", median(el.pointMS), len(el.pointMS), "Engine{Workers: 1}, Lookup miss to sink emit")
	if el.rows > 0 {
		r.set("sweep.sink_us_per_row", float64(el.sinkTime)/1e3/float64(el.rows), el.rows, "CSVSink.Point")
		r.set("traceio.bytes_per_row", float64(el.rowBytes)/float64(el.rows), el.rows, "")
	}
	r.set("sweep.points_computed", float64(el.computed), 1, "cold + overlap passes")
	r.set("sweep.points_replayed", float64(el.replayed), 1, "")
	r.set("spec.parse_us", median(b.parseUS), len(b.parseUS), "")
	r.set("spec.point_key_us", median(b.keyUS), len(b.keyUS), "")
	var submit, gaps, ratio []float64
	for _, s := range b.sessions {
		submit = append(submit, s.submitMS...)
		gaps = append(gaps, s.rowGapMS...)
		if s.overPts > 0 {
			ratio = append(ratio, float64(s.overCached)/float64(s.overPts))
		}
	}
	r.set("serve.submit_ms", median(submit), len(submit), "POST to 202")
	r.set("serve.row_gap_ms_p50", median(gaps), len(gaps), "cold stream, between grid points")
	r.set("serve.cache_hit_ratio", median(ratio), len(ratio), "overlap's cached / points (8 of 12)")
}
