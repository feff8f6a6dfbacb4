// Package api defines the versioned wire types of the eccsimd v1 HTTP API,
// shared by the server (internal/serve) and the Go client in this package,
// so the two cannot drift. The types mirror the JSON on the wire exactly;
// anything semantic — determinism, normalization, cache identity — is
// documented on the field it applies to.
//
// The v1 surface:
//
//	POST   /v1/experiments      SubmitRequest → SubmitResponse (202, or 200 on cache hit)
//	GET    /v1/experiments      ExperimentList
//	GET    /v1/schemes          SchemeList
//	GET    /v1/jobs/{id}        JobStatus
//	DELETE /v1/jobs/{id}        cancel a job → JobStatus
//	GET    /v1/results/{hash}   Result document (content-addressed)
//	POST   /v1/sweeps           SweepRequest → SweepStatus (202, or 200 when fully cached)
//	GET    /v1/sweeps/{id}      SweepStatus; ?wait=5s long-polls for progress;
//	                            ?watch=30s streams SweepEvent lines (NDJSON)
//	DELETE /v1/sweeps/{id}      cancel every non-terminal point → SweepStatus
//
// Errors are an envelope with a machine-readable code:
//
//	{"error": {"code": "queue_full", "message": "queue full, retry later"}}
package api

import (
	"encoding/json"
	"fmt"
	"time"
)

// Version is the API version prefix all v1 routes share.
const Version = "v1"

// Job lifecycle states, as reported by JobStatus.Status. A job moves
// queued → running → exactly one of done / failed / canceled. A deadline
// expiry reports failed (with a deadline message); an explicit cancel
// reports canceled.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Terminal reports whether status is a final job state.
func Terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// Priority classes carried by SubmitRequest.Priority. Dispatch between
// classes is weight-proportional (roughly 8:2:1 when all are backlogged),
// not strict, so no class can be starved. An empty priority means
// PriorityInteractive for single submissions and PrioritySweep for sweep
// points — the defaults keep pre-priority clients byte-compatible and keep
// big grids from starving interactive callers.
const (
	PriorityInteractive = "interactive"
	PrioritySweep       = "sweep"
	PriorityBatch       = "batch"
)

// ValidPriority reports whether p names a priority class ("" included,
// meaning "use the endpoint's default").
func ValidPriority(p string) bool {
	switch p {
	case "", PriorityInteractive, PrioritySweep, PriorityBatch:
		return true
	}
	return false
}

// SubmitRequest is the POST /v1/experiments body. Zero-valued knobs
// normalize to the full-fidelity defaults of cmd/eccsim (a zero seed means
// seed 1), so partial requests collapse to one canonical identity before
// hashing.
type SubmitRequest struct {
	// Experiment is a registered experiment id (GET /v1/experiments).
	Experiment string  `json:"experiment"`
	Cycles     float64 `json:"cycles,omitempty"`
	Warmup     int     `json:"warmup,omitempty"`
	Trials     int     `json:"trials,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	CSV        bool    `json:"csv,omitempty"`
	// Scheme selects the resilience scheme of scheme-aware experiments
	// (GET /v1/schemes lists them; empty means the experiment's default —
	// and IS the experiment's default, so the two spellings share one cache
	// identity). Scheme-blind experiments reject a non-empty Scheme.
	Scheme string `json:"scheme,omitempty"`
	// SchemeOptions is the scheme's constructor-options JSON object (the
	// schemes listing documents each scheme's options). The server
	// canonicalizes it before hashing, so formatting differences never
	// split the cache. Only valid alongside a scheme that declares options.
	SchemeOptions json.RawMessage `json:"scheme_options,omitempty"`
	// TimeoutSeconds bounds the job's execution time, counted from when a
	// worker starts it. The server's configured default acts as a ceiling:
	// the effective deadline is the smaller of the two. Zero inherits the
	// server default. Deliberately NOT part of the result's cache identity —
	// the same config computes the same bytes however long it was allowed
	// to take.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Priority selects the scheduling class (see the Priority* constants).
	// Empty means the endpoint default: interactive for single submissions,
	// sweep for sweep points. Like TimeoutSeconds, priority is NOT part of
	// the result's cache identity — the same config produces byte-identical
	// results whatever class computed them.
	Priority string `json:"priority,omitempty"`
	// Submitter is the fairness identity: the scheduler gives every
	// (submitter, group) pair its own FIFO lane, so two submitters'
	// backlogs interleave instead of queueing behind each other. Empty is
	// the shared anonymous lane. Also excluded from cache identity.
	Submitter string `json:"submitter,omitempty"`
}

// SubmitResponse answers POST /v1/experiments. On a cache hit (HTTP 200)
// Cached is true, Status is "done" and JobID is empty — the result is
// immediately fetchable at /v1/results/{ResultHash}. Otherwise (HTTP 202)
// poll /v1/jobs/{JobID}.
type SubmitResponse struct {
	JobID      string `json:"job_id,omitempty"`
	Status     string `json:"status"`
	ResultHash string `json:"result_hash"`
	Cached     bool   `json:"cached"`
}

// JobStatus answers GET (and DELETE) /v1/jobs/{id}. Started and Finished
// are pointers so a job that has not reached those transitions omits the
// fields instead of serializing the zero time ("0001-01-01T00:00:00Z", the
// shape bug this replaced); a nil pointer means "not yet".
type JobStatus struct {
	ID         string     `json:"id"`
	Status     string     `json:"status"`
	Error      string     `json:"error,omitempty"`
	ResultHash string     `json:"result_hash,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
}

// Params is the normalized experiment identity inside a Result. Workers is
// absent by design: results are worker-count invariant. Scheme and
// SchemeOptions appear only when a scheme-aware experiment selected a
// non-default configuration (SchemeOptions in canonical form); requests
// that predate the scheme layer keep their exact serialized identity.
type Params struct {
	Cycles        float64 `json:"cycles"`
	Warmup        int     `json:"warmup"`
	Trials        int     `json:"trials"`
	Seed          int64   `json:"seed"`
	CSV           bool    `json:"csv,omitempty"`
	Scheme        string  `json:"scheme,omitempty"`
	SchemeOptions string  `json:"scheme_options,omitempty"`
}

// Report is one experiment's rendered output: the exact text the eccsim
// CLI prints plus the structured rows behind it. Data's shape is
// figure-specific; clients that care unmarshal it into their own types.
type Report struct {
	Experiment string          `json:"experiment"`
	Title      string          `json:"title"`
	Text       string          `json:"text"`
	Data       json.RawMessage `json:"data,omitempty"`
}

// Result is the content-addressed document served by /v1/results/{hash}:
// Hash is the SHA-256 of the normalized (experiment, params) config, and
// the same hash always maps to byte-identical document bytes.
type Result struct {
	Hash       string `json:"hash"`
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
	Report     Report `json:"report"`
}

// SweepRequest is the POST /v1/sweeps body: one base config plus the axes
// to sweep. The server expands base × axes into the cross-product of point
// configs, runs each point as its own content-addressed job, and reports
// the whole batch as one SweepStatus. Base.TimeoutSeconds applies to every
// point individually.
type SweepRequest struct {
	Base SubmitRequest `json:"base"`
	Axes SweepAxes     `json:"axes"`
}

// SweepAxes lists, per knob, the values to sweep. A non-empty axis replaces
// the base value with each listed entry; an empty axis keeps the base
// value. The sweep is the cross-product of all non-empty axes, expanded in
// declaration order (experiment outermost, seed innermost). Points are
// normalized before identity, so axes that collapse to duplicate configs
// are rejected rather than silently double-computed.
type SweepAxes struct {
	Experiment []string  `json:"experiment,omitempty"`
	Scheme     []string  `json:"scheme,omitempty"`
	Cycles     []float64 `json:"cycles,omitempty"`
	Warmup     []int     `json:"warmup,omitempty"`
	Trials     []int     `json:"trials,omitempty"`
	Seed       []int64   `json:"seed,omitempty"`
}

// SweepPoint is one expanded configuration's live state inside a
// SweepStatus. Cached means the point was served from the result cache at
// sweep submission and never became a job (JobID empty, Status done); every
// point's result — cached or computed — is fetchable at
// /v1/results/{ResultHash} once its Status is done.
type SweepPoint struct {
	Index      int    `json:"index"`
	Experiment string `json:"experiment"`
	Params     Params `json:"params"`
	JobID      string `json:"job_id,omitempty"`
	Status     string `json:"status"`
	Error      string `json:"error,omitempty"`
	ResultHash string `json:"result_hash"`
	Cached     bool   `json:"cached,omitempty"`
}

// SweepProgress aggregates a sweep's point counts. Cached counts the subset
// of Done that was served from cache at submission.
type SweepProgress struct {
	Total    int `json:"total"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	Cached   int `json:"cached"`
}

// SweepStatus answers POST /v1/sweeps and GET/DELETE /v1/sweeps/{id}. The
// aggregate Status is "running" until every point is terminal, then
// "canceled" if any point was canceled, "failed" if any point failed,
// otherwise "done".
type SweepStatus struct {
	ID       string        `json:"id"`
	Status   string        `json:"status"`
	Created  time.Time     `json:"created"`
	Progress SweepProgress `json:"progress"`
	Points   []SweepPoint  `json:"points"`
}

// SweepEvent is one line of the chunked event stream served by
// GET /v1/sweeps/{id}?watch=<duration>: newline-delimited JSON, one event
// per line, flushed as it happens so a client sees the first finished
// points milliseconds after they complete instead of after the whole grid.
//
// Event order: first one "point" event per already-terminal point (so a
// late watcher still sees the full picture), then a "point" event as each
// remaining point reaches a terminal state, then exactly one final "sweep"
// event carrying the aggregate status — emitted when the sweep turns
// terminal or the watch window elapses, whichever comes first.
type SweepEvent struct {
	// Type is "point" (Point is set) or "sweep" (Sweep is set; final line).
	Type string `json:"type"`
	// Point is the terminal point the event announces.
	Point *SweepPoint `json:"point,omitempty"`
	// Sweep is the aggregate status closing the stream.
	Sweep *SweepStatus `json:"sweep,omitempty"`
}

// ExperimentInfo is one registry entry in GET /v1/experiments. Scheme
// fields appear only on scheme-aware experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// SchemeAware reports whether the experiment honours SubmitRequest.Scheme.
	SchemeAware bool `json:"scheme_aware,omitempty"`
	// DefaultScheme is what an empty Scheme resolves to.
	DefaultScheme string `json:"default_scheme,omitempty"`
}

// ExperimentList answers GET /v1/experiments.
type ExperimentList struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

// SchemeOption documents one constructor option of a scheme.
type SchemeOption struct {
	Name        string `json:"name"`
	Type        string `json:"type"`
	Description string `json:"description"`
}

// SchemeInfo is one scheme registry entry in GET /v1/schemes.
type SchemeInfo struct {
	Key         string `json:"key"`
	Description string `json:"description"`
	// ChipKillCorrect reports whether the scheme corrects any single-chip
	// failure.
	ChipKillCorrect bool `json:"chip_kill_correct"`
	// Options lists the constructor options SubmitRequest.SchemeOptions may
	// set for this scheme (absent for fixed schemes).
	Options []SchemeOption `json:"options,omitempty"`
}

// SchemeList answers GET /v1/schemes, in key order.
type SchemeList struct {
	Schemes []SchemeInfo `json:"schemes"`
}

// Machine-readable error codes carried in the error envelope.
const (
	// CodeInvalidRequest: malformed body, unknown field, or out-of-range
	// knob (HTTP 400).
	CodeInvalidRequest = "invalid_request"
	// CodeUnknownExperiment: the experiment id is not registered (HTTP 400).
	CodeUnknownExperiment = "unknown_experiment"
	// CodeUnknownScheme: the scheme is not registered, its options are
	// invalid, or the experiment does not take a scheme (HTTP 400).
	CodeUnknownScheme = "unknown_scheme"
	// CodeBudgetTooLarge: cycles/warmup/trials exceed the guardrails, or a
	// sweep expands past the server's point cap (HTTP 400).
	CodeBudgetTooLarge = "budget_too_large"
	// CodeQueueFull: the bounded queue is saturated; retry after the
	// Retry-After header's delay (HTTP 429).
	CodeQueueFull = "queue_full"
	// CodeDraining: the server is shutting down and accepts no new work
	// (HTTP 503).
	CodeDraining = "draining"
	// CodeNotFound: no such job or result (HTTP 404).
	CodeNotFound = "not_found"
	// CodeInternal: unexpected server-side failure (HTTP 500).
	CodeInternal = "internal"
)

// ErrorDetail is the machine-readable error payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the JSON body of every non-2xx response.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// Error is the client-side form of an API error response.
type Error struct {
	StatusCode int    // HTTP status
	Code       string // one of the Code* constants
	Message    string
}

// Error renders the message, code and HTTP status in one line.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s (%s, http %d)", e.Message, e.Code, e.StatusCode)
}
