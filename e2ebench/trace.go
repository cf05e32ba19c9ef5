package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"freepdm/internal/core"
	"freepdm/internal/obs"
	"freepdm/internal/tuplespace"
)

// span is one timed interval of a traced job. Spans form the tree
// run → transaction → store op; Problem calls hang off the run
// because a Problem method cannot tell which transaction called it.
// Times are nanoseconds since the job started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for the run span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// Span names. A transaction span is named after the role of its
// first take when it ends; a transaction with no take is a master
// seed or poison transaction.
const (
	spanRun        = "run"
	spanMaster     = "proc.master"
	spanTxnMaster  = "txn.master"
	spanTxnWorker  = "txn.worker"
	spanTxnOpen    = "txn"
	spanBegin      = "store.begin"
	spanTakeIn     = "store.in"
	spanTakeInp    = "store.inp"
	spanCommit     = "store.commit"
	spanAbort      = "store.abort"
	spanGoodness   = "problem.goodness"
	spanChildren   = "problem.children"
	spanSubpattern = "problem.subpatterns"
	spanDecode     = "problem.decode"
)

// recorder keeps the spans of one traced job in memory.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.spans = append(r.spans, span{ID: 0, Parent: -1, Name: spanRun})
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open starts a span whose end is filled in by close.
func (r *recorder) open(parent int32, name string, start int64) int32 {
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	r.mu.Unlock()
	return id
}

func (r *recorder) close(id int32, name string, end int64) {
	r.mu.Lock()
	r.spans[id].Name = name
	r.spans[id].End = end
	r.mu.Unlock()
}

// leaf records a finished span.
func (r *recorder) leaf(parent int32, name string, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int32(len(r.spans)), Parent: parent, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// finish ends the run span and returns every span. Call it after the
// job's processes have all exited.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].End = r.now()
	return r.spans
}

// problem is what the PLinda programs need from a mining problem.
type problem interface {
	core.Problem
	core.Decoder
}

// countedProblem counts Goodness calls and nothing else: the untraced
// jobs use it so every job's task count can be checked without a
// clock read per call.
type countedProblem struct {
	problem
	evals atomic.Int64
}

func (p *countedProblem) Goodness(pat core.Pattern) float64 {
	p.evals.Add(1)
	return p.problem.Goodness(pat)
}

// tracedProblem records a span around every Goodness, Children,
// Subpatterns and Decode call. Root and Good are trivial and pass
// straight through.
type tracedProblem struct {
	problem
	rec *recorder
}

func (p *tracedProblem) Goodness(pat core.Pattern) float64 {
	s := p.rec.now()
	g := p.problem.Goodness(pat)
	p.rec.leaf(0, spanGoodness, s, p.rec.now())
	return g
}

func (p *tracedProblem) Children(pat core.Pattern) []core.Pattern {
	s := p.rec.now()
	cs := p.problem.Children(pat)
	p.rec.leaf(0, spanChildren, s, p.rec.now())
	return cs
}

func (p *tracedProblem) Subpatterns(pat core.Pattern) []core.Pattern {
	s := p.rec.now()
	ss := p.problem.Subpatterns(pat)
	p.rec.leaf(0, spanSubpattern, s, p.rec.now())
	return ss
}

func (p *tracedProblem) Decode(key string) (core.Pattern, error) {
	s := p.rec.now()
	pat, err := p.problem.Decode(key)
	p.rec.leaf(0, spanDecode, s, p.rec.now())
	return pat, err
}

// tracedStore sits in front of the store handed to
// plinda.NewServerOnStore and records a span per store operation and
// per transaction. wrapStore picks the variant that implements
// exactly the optional interfaces of the wrapped store, so PLinda
// takes the same code paths with and without tracing.
type tracedStore struct {
	inner tuplespace.TxnStore
	rec   *recorder
}

func (s *tracedStore) op(name string, start int64) { s.rec.leaf(0, name, start, s.rec.now()) }

func (s *tracedStore) Out(ctx context.Context, fields ...any) error {
	st := s.rec.now()
	defer s.op("store.out", st)
	return s.inner.Out(ctx, fields...)
}

func (s *tracedStore) OutN(ctx context.Context, tuples []tuplespace.Tuple) error {
	st := s.rec.now()
	defer s.op("store.outn", st)
	return s.inner.OutN(ctx, tuples)
}

func (s *tracedStore) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	st := s.rec.now()
	defer s.op(spanTakeIn, st)
	return s.inner.In(ctx, tmplFields...)
}

func (s *tracedStore) InTraced(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	st := s.rec.now()
	defer s.op(spanTakeIn, st)
	return s.inner.InTraced(ctx, tmplFields...)
}

func (s *tracedStore) Inp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	st := s.rec.now()
	defer s.op(spanTakeInp, st)
	return s.inner.Inp(ctx, tmplFields...)
}

func (s *tracedStore) Rd(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	st := s.rec.now()
	defer s.op("store.rd", st)
	return s.inner.Rd(ctx, tmplFields...)
}

func (s *tracedStore) Rdp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	st := s.rec.now()
	defer s.op("store.rdp", st)
	return s.inner.Rdp(ctx, tmplFields...)
}

func (s *tracedStore) Len() (int, error) { return s.inner.Len() }

func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedStore) Begin() (tuplespace.Txn, error) {
	st := s.rec.now()
	id := s.rec.open(0, spanTxnOpen, st)
	tx, err := s.inner.Begin()
	end := s.rec.now()
	s.rec.leaf(id, spanBegin, st, end)
	if err != nil {
		s.rec.close(id, spanTxnMaster, end)
		return nil, err
	}
	t := &tracedTxn{inner: tx, rec: s.rec, id: id}
	if _, ok := tx.(tuplespace.ContCommitter); ok {
		return contTxn{t}, nil
	}
	return t, nil
}

// recoverStore adds the Recoverer of a Client or Router.
type recoverStore struct{ *tracedStore }

func (s recoverStore) Recover() (tuplespace.Tuple, bool, error) {
	return s.inner.(tuplespace.Recoverer).Recover()
}

// routerStore adds the Router's RetryableFailures, which decides
// whether PLinda respawns a process after a transient store error.
type routerStore struct{ recoverStore }

func (s routerStore) RetryableFailures() bool {
	return s.inner.(retryable).RetryableFailures()
}

// spaceStore adds Underlying, through which PLinda finds the
// in-process space of a *tuplespace.Space or durable.Space.
type spaceStore struct {
	*tracedStore
	sp *tuplespace.Space
}

func (s spaceStore) Underlying() *tuplespace.Space { return s.sp }

type retryable interface{ RetryableFailures() bool }
type underlying interface{ Underlying() *tuplespace.Space }

// wrapStore returns inner behind a tracedStore variant with the same
// optional interfaces, or an error for a combination no variant
// covers, so a traced job never silently runs a different program.
func wrapStore(inner tuplespace.TxnStore, rec *recorder) (tuplespace.TxnStore, error) {
	base := &tracedStore{inner: inner, rec: rec}
	_, isRec := inner.(tuplespace.Recoverer)
	_, isRetry := inner.(retryable)
	u, isUnder := inner.(underlying)
	switch sp, isSpace := inner.(*tuplespace.Space); {
	case isSpace && !isRec && !isRetry:
		return spaceStore{base, sp}, nil
	case isUnder && !isRec && !isRetry:
		return spaceStore{base, u.Underlying()}, nil
	case isRec && isRetry && !isUnder:
		return routerStore{recoverStore{base}}, nil
	case isRec && !isRetry && !isUnder:
		return recoverStore{base}, nil
	case !isRec && !isRetry && !isUnder:
		return base, nil
	}
	return nil, fmt.Errorf("e2ebench: no traced wrapper forwards the optional interfaces of %T", inner)
}

// tracedTxn records the transaction's store ops as children of its
// span. A transaction is only used by the process that began it.
type tracedTxn struct {
	inner tuplespace.Txn
	rec   *recorder
	id    int32
	role  string // span name, settled by the first take
}

// roleOf attributes a take to the master or a worker by its
// template's tag: only workers take tasks.
func roleOf(tmplFields []any) string {
	if len(tmplFields) > 0 && tmplFields[0] == core.TagTask {
		return spanTxnWorker
	}
	return spanTxnMaster
}

func (tx *tracedTxn) take(name string, tmplFields []any, start int64) {
	if tx.role == "" {
		tx.role = roleOf(tmplFields)
	}
	tx.rec.leaf(tx.id, name, start, tx.rec.now())
}

func (tx *tracedTxn) end(name string, start int64) {
	end := tx.rec.now()
	tx.rec.leaf(tx.id, name, start, end)
	role := tx.role
	if role == "" {
		role = spanTxnMaster
	}
	tx.rec.close(tx.id, role, end)
}

func (tx *tracedTxn) In(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, error) {
	st := tx.rec.now()
	defer tx.take(spanTakeIn, tmplFields, st)
	return tx.inner.In(ctx, tmplFields...)
}

func (tx *tracedTxn) InTraced(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, obs.SpanContext, error) {
	st := tx.rec.now()
	defer tx.take(spanTakeIn, tmplFields, st)
	return tx.inner.InTraced(ctx, tmplFields...)
}

func (tx *tracedTxn) Inp(ctx context.Context, tmplFields ...any) (tuplespace.Tuple, bool, error) {
	st := tx.rec.now()
	defer tx.take(spanTakeInp, tmplFields, st)
	return tx.inner.Inp(ctx, tmplFields...)
}

func (tx *tracedTxn) Commit(ctx context.Context, outs []tuplespace.Tuple) error {
	st := tx.rec.now()
	defer tx.end(spanCommit, st)
	return tx.inner.Commit(ctx, outs)
}

func (tx *tracedTxn) Abort() error {
	st := tx.rec.now()
	defer tx.end(spanAbort, st)
	return tx.inner.Abort()
}

// contTxn adds CommitCont for transactions that store continuations.
type contTxn struct{ *tracedTxn }

func (tx contTxn) CommitCont(ctx context.Context, outs []tuplespace.Tuple, cont tuplespace.Tuple) error {
	st := tx.rec.now()
	defer tx.end(spanCommit, st)
	return tx.inner.(tuplespace.ContCommitter).CommitCont(ctx, outs, cont)
}
