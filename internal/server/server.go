package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/obs"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
	"tqp/internal/value"
)

// Config parameterizes a Server. The zero value of every field has a
// usable default; only Catalog is required.
type Config struct {
	// Addr is the TCP listen address; default "127.0.0.1:0" (an ephemeral
	// port — read the chosen one back with Server.Addr).
	Addr string
	// Catalog is the database served. It must not be mutated while the
	// server runs; its fingerprint is computed once at startup and keys
	// the plan cache.
	Catalog *catalog.Catalog
	// Engine is the default session engine name ("reference", "exec",
	// "parallel"); default "exec".
	Engine string
	// MaxConcurrent caps concurrently executing queries; default
	// GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue; default 4×MaxConcurrent.
	MaxQueue int
	// QueueTimeout is the admission queue deadline; default 2s.
	QueueTimeout time.Duration
	// Workers is the global worker pool divided across admitted queries;
	// default GOMAXPROCS.
	Workers int
	// MemoryBudget is the global working-set bound in bytes divided across
	// admitted queries; 0 = unbudgeted.
	MemoryBudget int64
	// SpillDir roots the budgeted engine's spill files; "" = system temp.
	SpillDir string
	// CacheSize bounds the plan cache (entries); default 256, negative
	// disables caching.
	CacheSize int
	// BatchRows is the result streaming batch size; default 256.
	BatchRows int
	// WriteTimeout bounds each network write to a client; default 30s. A
	// peer that stops reading stalls its connection's writes, and this
	// deadline is what unsticks the handler (admission slots are already
	// safe: they release before result streaming begins).
	WriteTimeout time.Duration
	// Seed drives the simulated DBMS's order nondeterminism; default 1.
	// Two servers with equal catalogs, seeds and engine settings return
	// bit-identical result lists for every statement.
	Seed int64
	// DrainTimeout bounds how long Close waits for in-flight queries;
	// default 10s.
	DrainTimeout time.Duration
	// ShardPositions, set when Catalog is one shard of a partitioned
	// database, maps each relation to its rows' global sequence keys (the
	// positions in the unsharded relation, parallel to the stored rows).
	// Partial-plan responses report these so a coordinator can merge
	// shard results deterministically; nil means the catalog is whole and
	// positions are the identity.
	ShardPositions map[string][]int
	// Metrics, when set, is the external registry the server's metric
	// families register into (cmd/tqserver passes the one its
	// -metrics-addr listener serves). When nil the server keeps a private
	// registry — the counters still drive the stats reply's uptime, error
	// and latency sections, they just aren't scrapeable.
	Metrics *obs.Registry
	// QueryLog, when set, receives one structured record per query (see
	// obs.QueryRecord); its slow threshold decides which records pass.
	// Nil disables query logging.
	QueryLog *obs.QueryLog
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Engine == "" {
		c.Engine = "exec"
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 256
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server is one running temporal-query service instance.
type Server struct {
	cfg     Config
	ln      net.Listener
	fp      string
	cache   *planCache
	adm     *admission
	start   time.Time
	metrics *serverMetrics // never nil; backed by Config.Metrics or a private registry
	qlog    *obs.QueryLog

	mu     sync.Mutex
	conns  map[net.Conn]bool
	opts   map[string]*core.Optimizer // per engine-spec name, for planning
	closed bool
	// marker and markerSeen are set while Close drains the listen
	// backlog: the accept loop closes markerSeen on accepting the
	// connection whose remote address is marker.
	marker     string
	markerSeen chan struct{}

	queries  sync.WaitGroup // in-flight query executions
	handlers sync.WaitGroup // connection handler goroutines
	accept   sync.WaitGroup // the accept loop

	closeOnce sync.Once
	closeErr  error

	// execGate, when set by a test, runs while the query holds its
	// admission slot — the hook the admission and shutdown tests use to
	// make occupancy deterministic without timing games.
	execGate func()
}

// Start launches a server: it binds the listen address, starts the accept
// loop, and returns. Stop it with Close.
func Start(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("server: Config.Catalog is required")
	}
	cfg = cfg.withDefaults()
	// Validate the default engine name (and the session derivation) once at
	// startup rather than on every connection.
	adm := newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueTimeout, cfg.Workers, cfg.MemoryBudget)
	if _, err := newSession(cfg.Engine, adm.grant(), cfg.SpillDir); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		fp:    cfg.Catalog.Fingerprint(),
		cache: newPlanCache(cfg.CacheSize),
		adm:   adm,
		start: time.Now(),
		qlog:  cfg.QueryLog,
		conns: make(map[net.Conn]bool),
		opts:  make(map[string]*core.Optimizer),
	}
	// The metric families always exist — they feed the stats reply's
	// uptime/error/latency sections — but only register into a scrapeable
	// registry when the caller provides one.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	} else {
		cfg.Catalog.RegisterMetrics(reg)
	}
	s.metrics = newServerMetrics(reg, s)
	s.accept.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// CacheStats snapshots the plan cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// AdmissionStats snapshots the admission controller counters.
func (s *Server) AdmissionStats() AdmissionStats { return s.adm.stats() }

// Close shuts the server down gracefully: it stops accepting connections,
// rejects queued and future queries with a shutdown error, drains in-flight
// queries for up to DrainTimeout, then closes every connection. It is
// idempotent — every call returns the first call's outcome — and on a clean
// drain no spill files remain (each query's engine removes its spill
// directory when its evaluation ends). An exceeded drain deadline is
// reported as an error; the stragglers' connections are closed underneath
// them, and their spill cleanup still runs when their evaluations finish.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.adm.close()

		s.drainBacklog()
		s.ln.Close()
		s.accept.Wait()

		if !waitTimeout(&s.queries, s.cfg.DrainTimeout) {
			s.closeErr = fmt.Errorf("server: close: drain deadline %s exceeded with queries in flight", s.cfg.DrainTimeout)
		}

		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()

		// Idle handlers unblock off their closed connections immediately;
		// handlers stuck in a straggler query are already counted in
		// closeErr, so don't wait for them forever.
		waitTimeout(&s.handlers, time.Second)
	})
	return s.closeErr
}

// waitTimeout waits on wg for at most d; false on timeout. The timer is
// stopped on the wait path (like the admission queue's) rather than left to
// fire — time.After would keep a live timer per call until d elapses.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	}
}

// flushReply pushes a buffered reply onto the connection before its query
// stops counting as in flight: Close closes every connection once the
// in-flight count drains, and an unflushed reply would be lost. A write
// error stays sticky in the bufio.Writer, so the handler's own Flush still
// reports it.
func flushReply(w io.Writer) {
	if bw, ok := w.(*bufio.Writer); ok {
		_ = bw.Flush()
	}
}

// drainBacklog returns once every connection completed before the call
// has been accepted. A completed connection waits in the listen backlog
// until accepted, and closing the listener would reset it; accepted, it is
// served like any other and its queries get the typed shutdown reply. The
// kernel queues completed connections first in, first out, so it dials the
// listener itself and waits (at most a second) for the accept loop to take
// that marker connection.
func (s *Server) drainBacklog() {
	marker, err := net.DialTimeout("tcp", s.ln.Addr().String(), time.Second)
	if err != nil {
		return // the listener is unreachable or its backlog full
	}
	defer marker.Close()
	addr := marker.LocalAddr().String()
	seen := make(chan struct{})
	s.mu.Lock()
	for conn := range s.conns {
		if conn.RemoteAddr().String() == addr {
			s.mu.Unlock()
			return // accepted already
		}
	}
	s.marker, s.markerSeen = addr, seen
	s.mu.Unlock()
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	select {
	case <-seen:
	case <-timer.C:
	}
}

func (s *Server) acceptLoop() {
	defer s.accept.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// A connection accepted while Close runs is served too: Close
		// waits for this loop before it closes the tracked connections,
		// and runQuery answers its queries with CodeShutdown.
		s.mu.Lock()
		s.conns[conn] = true
		if s.markerSeen != nil && conn.RemoteAddr().String() == s.marker {
			close(s.markerSeen)
			s.markerSeen = nil
		}
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// handleConn serves one connection: a session plus a request loop.
func (s *Server) handleConn(conn net.Conn) {
	defer s.handlers.Done()
	defer s.dropConn(conn)

	sess, err := newSession(s.cfg.Engine, s.adm.grant(), s.cfg.SpillDir)
	if err != nil {
		return // Start validated this; unreachable in practice
	}
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(deadlineWriter{conn: conn, timeout: s.cfg.WriteTimeout})
	for {
		var req Request
		if err := ReadFrame(br, &req); err != nil {
			if errors.Is(err, errBadPayload) {
				// The frame was consumed whole; answer and keep serving.
				if writeError(bw, CodeProto, err) != nil || bw.Flush() != nil {
					return
				}
				continue
			}
			return // hangup or unrecoverable framing error
		}
		if err := s.handleRequest(&req, sess, bw); err != nil {
			return // write failure: the peer is gone
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// deadlineWriter arms a fresh write deadline before every underlying
// write, so a peer that stops reading errors the handler out within
// timeout instead of blocking it forever. Per-write (not per-response)
// granularity: a large result to a slow-but-reading client keeps making
// progress, only a genuine stall trips the deadline.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		if err := w.conn.SetWriteDeadline(time.Now().Add(w.timeout)); err != nil {
			return 0, err
		}
	}
	return w.conn.Write(p)
}

// handleRequest dispatches one request, writing the full response to w. A
// returned error means the connection is unusable; per-request failures are
// written as error frames and return nil.
func (s *Server) handleRequest(req *Request, sess *session, w io.Writer) error {
	switch req.Op {
	case OpPing:
		return WriteFrame(w, &Response{Kind: KindPong})
	case OpStats:
		return WriteFrame(w, &Response{Kind: KindStats, Stats: s.statsReply()})
	case OpSet:
		if err := sess.set(strings.ToLower(req.Name), req.Value); err != nil {
			return s.replyError(w, CodeSet, err)
		}
		return WriteFrame(w, &Response{Kind: KindOK})
	case OpQuery:
		if name, val, isSet, err := ParseSet(req.SQL); isSet {
			if err == nil {
				err = sess.set(name, val)
			}
			if err != nil {
				return s.replyError(w, CodeSet, err)
			}
			return WriteFrame(w, &Response{Kind: KindOK})
		}
		return s.runQuery(req.SQL, sess, w)
	case OpPartial:
		return s.runPartial(req.Plan, w)
	default:
		return s.replyError(w, CodeProto, fmt.Errorf("server: unknown op %q", req.Op))
	}
}

func (s *Server) statsReply() *StatsReply {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	lat := s.metrics.latency.Snapshot()
	qw := s.metrics.queueWait.Snapshot()
	return &StatsReply{
		Cache:         s.cache.stats(),
		Admission:     s.adm.stats(),
		Conns:         conns,
		Fingerprint:   s.fp,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Queries:       s.metrics.queries.Value(),
		Errors:        s.metrics.errorCounts(),
		Latency:       &lat,
		QueueWait:     &qw,
	}
}

// writeError writes one typed error frame.
func writeError(w io.Writer, code string, err error) error {
	return WriteFrame(w, &Response{Kind: KindError, Err: &WireError{Code: code, Msg: err.Error()}})
}

// replyError counts the failure under its code and writes the error frame.
func (s *Server) replyError(w io.Writer, code string, err error) error {
	s.metrics.errorCounter(code).Inc()
	return writeError(w, code, err)
}

// queryTiming is one query's latency breakdown, filled in as runQuery
// moves through its phases and flushed to the metrics registry and query
// log when the query ends (success and failure alike).
type queryTiming struct {
	queue, plan, exec, stream time.Duration
}

// finishQuery flushes one completed query's measurements. code is the wire
// error code, empty on success.
func (s *Server) finishQuery(t *queryTiming, sql string, spec eval.EngineSpec, prep *core.Prepared, hit bool, rows int, trace *stratum.Trace, code string, started time.Time) {
	total := t.queue + t.plan + t.exec + t.stream
	s.metrics.latency.Observe(total.Seconds())
	s.metrics.queueWait.Observe(t.queue.Seconds())
	if code == "" {
		s.metrics.rows.Observe(float64(rows))
	}
	if trace != nil {
		s.metrics.spillBytes.Add(trace.SpilledBytes)
		s.metrics.transferred.Add(int64(trace.TuplesTransferred))
	}
	if !s.qlog.Enabled() {
		return
	}
	rec := &obs.QueryRecord{
		Time:         started,
		SQLHash:      obs.Hash(NormalizeSQL(sql)),
		Engine:       spec.Name,
		Parallelism:  spec.Parallelism,
		MemoryBudget: spec.MemoryBudget,
		CacheHit:     hit,
		Rows:         int64(rows),
		QueueMS:      float64(t.queue) / float64(time.Millisecond),
		PlanMS:       float64(t.plan) / float64(time.Millisecond),
		ExecMS:       float64(t.exec) / float64(time.Millisecond),
		StreamMS:     float64(t.stream) / float64(time.Millisecond),
		Code:         code,
	}
	if prep != nil {
		rec.Fingerprint = prep.Fingerprint
	}
	if trace != nil {
		rec.PeakBytes = trace.PeakBytes
		rec.SpilledOps = trace.SpilledOps
		rec.SpilledBytes = trace.SpilledBytes
	}
	s.qlog.Emit(rec)
}

// runQuery is the serving path: admission, plan-cache lookup (preparing on
// a miss), execution on the session's engine share, and batched result
// streaming. An EXPLAIN [ANALYZE] prefix reuses the same path — same
// admission, same plan cache — but returns the rendered plan as a
// single-column result instead of (EXPLAIN) or alongside running (EXPLAIN
// ANALYZE) the statement's own rows.
func (s *Server) runQuery(sql string, sess *session, w io.Writer) error {
	// Count the query as in flight before touching admission, under the
	// same lock Close uses to flip closed — after Close observes closed,
	// no new query can register, which makes the drain wait race-free.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.replyError(w, CodeShutdown, ErrClosing)
	}
	s.queries.Add(1)
	gate := s.execGate
	s.mu.Unlock()
	defer s.queries.Done()
	defer flushReply(w)

	mode, stripped := tsql.StripExplain(sql)
	sql = stripped
	s.metrics.queries.Inc()
	started := time.Now()
	spec := sess.spec

	// The failure path flushes timing through finish; the success path
	// nils it out and flushes itself with the full measurements.
	var t queryTiming
	var prep *core.Prepared
	var trace *stratum.Trace
	hit := false
	finish := func(code string) {
		s.finishQuery(&t, sql, spec, prep, hit, 0, trace, code, started)
	}

	if _, err := s.adm.acquire(); err != nil {
		t.queue = time.Since(started)
		code := CodeAdmission
		if errors.Is(err, ErrClosing) {
			code = CodeShutdown
		}
		finish(code)
		return s.replyError(w, code, err)
	}
	t.queue = time.Since(started)
	// The slot covers the expensive phases — planning and execution. It
	// releases before result streaming: the result is fully materialized
	// by then, so a slow (or stalled) reader must not keep a slot from
	// the queue while bytes trickle out.
	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release()
		}
	}
	defer release()
	if gate != nil {
		gate()
	}

	key := PlanKey(s.fp, spec.Name, sql)
	prep = s.cache.get(key)
	hit = prep != nil
	opt := s.optimizerFor(spec)
	if prep == nil {
		planStart := time.Now()
		var err error
		prep, err = opt.Prepare(sql)
		t.plan = time.Since(planStart)
		if err != nil {
			// Classify exactly: if the statement does not even parse it
			// is a parse error; anything after (name resolution, planning,
			// enumeration, site validation) is a plan error.
			code := CodePlan
			var perr *tsql.ParseError
			if errors.As(err, &perr) {
				code = CodeParse
			}
			finish(code)
			return s.replyError(w, code, err)
		}
		s.cache.put(key, prep)
	}

	var result *relation.Relation
	execStart := time.Now()
	switch mode {
	case tsql.ExplainPlan:
		text, err := opt.Explain(prep.Plan, prep.ResultType)
		t.exec = time.Since(execStart)
		if err != nil {
			finish(CodePlan)
			return s.replyError(w, CodePlan, err)
		}
		result = textRelation(text)
	case tsql.ExplainAnalyze:
		an, err := opt.ExplainAnalyze(prep, spec)
		t.exec = time.Since(execStart)
		if err != nil {
			finish(CodeExec)
			return s.replyError(w, CodeExec, err)
		}
		result, trace = textRelation(an.Text), an.Trace
	default:
		var err error
		result, trace, err = opt.ExecutePlan(prep.Plan, spec)
		t.exec = time.Since(execStart)
		if err != nil {
			finish(CodeExec)
			return s.replyError(w, CodeExec, err)
		}
	}
	release()

	streamStart := time.Now()
	done := &Done{
		Tuples:   result.Len(),
		Plans:    prep.PlanCount,
		CacheHit: hit,
		BestCost: prep.BestCost,
		Engine:   spec.Name,
	}
	if trace != nil {
		done.TuplesTransferred = trace.TuplesTransferred
	}
	err := StreamResult(w, result, s.cfg.BatchRows, done)
	t.stream = time.Since(streamStart)
	s.finishQuery(&t, sql, spec, prep, hit, result.Len(), trace, "", started)
	return err
}

// StreamResult writes a materialized result as protocol frames — one
// schema frame, batched rows frames, the terminal done frame — the
// server's answer to a query. Exported so the coordinator's frontend
// streams its gathered results with the exact same encoding.
func StreamResult(w io.Writer, result *relation.Relation, batchRows int, done *Done) error {
	if batchRows <= 0 {
		batchRows = 256
	}
	if err := WriteFrame(w, &Response{
		Kind:  KindSchema,
		Cols:  colsOf(result.Schema()),
		Order: orderOf(result.Order()),
	}); err != nil {
		return err
	}
	tuples := result.Tuples()
	for from := 0; from < len(tuples); from += batchRows {
		to := from + batchRows
		if to > len(tuples) {
			to = len(tuples)
		}
		frame := &Response{Kind: KindRows}
		if result.Schema().Len() == 0 {
			// Column-major has no column to carry the row count of a
			// zero-arity result, so those frames would silently lose every
			// row; fall back to the row-major layout, which carries one
			// (empty) slice per row.
			frame.Rows = encodeRows(tuples, from, to)
		} else {
			frame.ColRows = encodeCols(tuples, from, to)
		}
		if err := WriteFrame(w, frame); err != nil {
			return err
		}
	}
	return WriteFrame(w, &Response{Kind: KindDone, Done: done})
}

// textRelation wraps rendered plan text as a single-column result
// relation, one row per line — EXPLAIN output travels through the normal
// result-streaming protocol, so every client renders it unchanged.
func textRelation(text string) *relation.Relation {
	sch, err := schema.New(schema.Attr("QUERY PLAN", value.KindString))
	if err != nil {
		panic(err) // static schema; cannot fail
	}
	r := relation.New(sch)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		r.Append(relation.NewTuple(value.String_(line)))
	}
	return r
}

// runPartial executes one pushed-down plan fragment against the server's
// catalog (shard) and streams the result with per-row sequence keys. It
// takes an admission slot like a query — a fragment is a query's work,
// just with the planning already done coordinator-side — but skips the
// plan cache: fragments arrive pre-planned.
func (s *Server) runPartial(plan *WirePlan, w io.Writer) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return writeError(w, CodeShutdown, ErrClosing)
	}
	s.queries.Add(1)
	gate := s.execGate
	s.mu.Unlock()
	defer s.queries.Done()
	defer flushReply(w)

	if _, err := s.adm.acquire(); err != nil {
		code := CodeAdmission
		if errors.Is(err, ErrClosing) {
			code = CodeShutdown
		}
		return writeError(w, code, err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			s.adm.release()
		}
	}
	defer release()
	if gate != nil {
		gate()
	}

	rel, steps, err := DecodePlan(plan)
	if err != nil {
		return writeError(w, CodeProto, err)
	}
	base, err := s.cfg.Catalog.Resolve(rel)
	if err != nil {
		return writeError(w, CodePlan, err)
	}
	result, seqs, err := exec.RunFragment(base, s.cfg.ShardPositions[rel], steps)
	if err != nil {
		return writeError(w, CodeExec, err)
	}
	release()

	if err := WriteFrame(w, &Response{
		Kind:  KindSchema,
		Cols:  colsOf(result.Schema()),
		Order: orderOf(result.Order()),
	}); err != nil {
		return err
	}
	tuples := result.Tuples()
	for from := 0; from < len(tuples); from += s.cfg.BatchRows {
		to := from + s.cfg.BatchRows
		if to > len(tuples) {
			to = len(tuples)
		}
		frame := &Response{Kind: KindRows}
		if result.Schema().Len() == 0 {
			frame.Rows = encodeRows(tuples, from, to)
		} else {
			frame.ColRows = encodeCols(tuples, from, to)
		}
		if seqs != nil {
			frame.Seqs = seqs[from:to]
		}
		if err := WriteFrame(w, frame); err != nil {
			return err
		}
	}
	return WriteFrame(w, &Response{Kind: KindDone, Done: &Done{Tuples: result.Len()}})
}

// optimizerFor returns the planning optimizer calibrated to the spec,
// building one lazily per distinct engine-spec name. Optimizers are safe
// for concurrent use (pinned by internal/core's concurrency suite), so one
// instance per spec serves every connection.
func (s *Server) optimizerFor(spec eval.EngineSpec) *core.Optimizer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if opt, ok := s.opts[spec.Name]; ok {
		return opt
	}
	opt := core.New(s.cfg.Catalog, core.WithEngine(spec), core.WithDBMSSeed(s.cfg.Seed))
	s.opts[spec.Name] = opt
	return opt
}
