package repl

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/wal"
)

// Leader serves the WAL stream and checkpoint bootstrap out of the
// registry's durability manager. It holds no state of its own beyond
// counters, so it is safe for concurrent use by many follower streams.
type Leader struct {
	durable *wal.Durable
	clock   simclock.Clock
	slog    *slog.Logger

	// MaxWait caps the wait query parameter so a stream cannot pin a
	// connection forever; MaxBatch caps records per response.
	MaxWait  time.Duration
	MaxBatch int

	active   atomic.Int64
	streams  atomic.Int64
	records  atomic.Int64
	pruned   atomic.Int64
	errs     atomic.Int64
	ckptsrvd atomic.Int64
}

// Leader defaults.
const (
	DefaultMaxWait  = 30 * time.Second
	DefaultMaxBatch = 4096
)

// NewLeader wires a Leader over the registry's durability manager.
func NewLeader(d *wal.Durable, clock simclock.Clock, logger *slog.Logger) *Leader {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Leader{
		durable:  d,
		clock:    clock,
		slog:     obs.OrNop(logger),
		MaxWait:  DefaultMaxWait,
		MaxBatch: DefaultMaxBatch,
	}
}

// prunedAnswer is the 410 body: where to re-bootstrap from.
type prunedAnswer struct {
	Error      string `json:"error"`
	Checkpoint string `json:"checkpoint"`
}

// ServeWAL streams committed records strictly after ?from as binary
// frames. Without ?wait the response ends at the committed tail. With it
// the response is one stream for the whole wait: each burst of commits is
// flushed when the reader reaches the tail again, and the handler then
// sleeps on the log's append signal until the deadline, ?max frames, a
// read error or the client going away.
func (ld *Leader) ServeWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "repl: GET only", http.StatusMethodNotAllowed)
		return
	}
	from, err := wal.ParsePosition(r.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wait, err := parseWait(r.URL.Query().Get("wait"), ld.MaxWait)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	max := ld.MaxBatch
	if s := r.URL.Query().Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			http.Error(w, "repl: bad max", http.StatusBadRequest)
			return
		}
		if n < max {
			max = n
		}
	}
	log := ld.durable.WAL()
	rd, err := log.OpenReaderAt(from)
	if err != nil {
		if errors.Is(err, wal.ErrPositionPruned) {
			ld.answerPruned(w, from)
			return
		}
		ld.errs.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer rd.Close()

	ld.active.Add(1)
	ld.streams.Add(1)
	defer ld.active.Add(-1)

	pos, seq := log.Committed()
	w.Header().Set(HeaderLeaderPos, pos.String())
	w.Header().Set(HeaderLeaderSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", ContentTypeFrames)
	stream := http.NewResponseController(w)
	defer stream.Flush()
	deadline := ld.clock.Now().Add(wait)
	sent := 0
	onWire := false // the status line has been flushed: too late for a 410
	for sent < max {
		rec, err := rd.Next()
		if errors.Is(err, wal.ErrEndOfLog) {
			remaining := deadline.Sub(ld.clock.Now())
			if remaining <= 0 {
				return
			}
			// The burst is over. Hand it to the follower — on an idle log,
			// just the headers, so it learns it is connected and caught up
			// — before sleeping.
			stream.Flush()
			onWire = true
			// Arm the append signal, then re-check: a record committed
			// between Next and AppendSignal must not be slept past.
			sig := log.AppendSignal()
			if p, _ := log.Committed(); rd.Pos().Less(p) {
				continue
			}
			select {
			case <-sig:
			case <-ld.clock.After(remaining):
			case <-r.Context().Done():
				return
			}
			continue
		}
		if err != nil {
			// Mid-stream prune or corruption: end the batch; the
			// follower's next poll gets the full-status answer.
			if !errors.Is(err, wal.ErrPositionPruned) {
				ld.errs.Add(1)
				ld.slog.WarnContext(r.Context(), "repl stream read failed", "err", err)
			} else if !onWire && sent == 0 {
				ld.answerPruned(w, from)
			}
			return
		}
		if err := writeFrame(w, rec, log.Seq()); err != nil {
			ld.errs.Add(1)
			return // client went away mid-frame
		}
		sent++
		ld.records.Add(1)
	}
}

// answerPruned tells the follower its resume position predates the oldest
// live segment and where the newest checkpoint stands.
func (ld *Leader) answerPruned(w http.ResponseWriter, from wal.Position) {
	ld.pruned.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGone)
	json.NewEncoder(w).Encode(prunedAnswer{
		Error:      "repl: position " + from.String() + " pruned; re-bootstrap from checkpoint",
		Checkpoint: ld.durable.CheckpointPos().String(),
	})
}

// ServeCheckpoint streams the newest checkpoint file verbatim, stamped
// with the WAL position it covers and the leader's committed sequence.
func (ld *Leader) ServeCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "repl: GET only", http.StatusMethodNotAllowed)
		return
	}
	pos, f, size, err := ld.durable.NewestCheckpoint()
	if err != nil {
		ld.errs.Add(1)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer f.Close()
	seq, err := ld.seqAt(pos)
	if err != nil {
		ld.errs.Add(1)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	leaderPos, leaderSeq := ld.durable.WAL().Committed()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderCheckpointPos, pos.String())
	w.Header().Set(HeaderLeaderPos, leaderPos.String())
	w.Header().Set(HeaderLeaderSeq, strconv.FormatUint(leaderSeq, 10))
	w.Header().Set(HeaderCheckpointSeq, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if _, err := io.Copy(w, f); err != nil {
		ld.errs.Add(1)
		return // client went away, or the disk failed, mid-file
	}
	ld.ckptsrvd.Add(1)
}

// seqAt resolves the record sequence number at a committed position by
// opening (and immediately closing) a reader there.
func (ld *Leader) seqAt(pos wal.Position) (uint64, error) {
	rd, err := ld.durable.WAL().OpenReaderAt(pos)
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	return rd.Seq(), nil
}

// parseWait parses the wait query parameter, clamping to limit.
func parseWait(s string, limit time.Duration) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, errors.New("repl: bad wait duration")
	}
	if d > limit {
		d = limit
	}
	return d, nil
}

// Stats snapshots the leader's counters for metrics and health.
type LeaderStats struct {
	ActiveStreams     int64
	StreamsTotal      int64
	RecordsStreamed   int64
	PrunedTotal       int64
	ErrorsTotal       int64
	CheckpointsServed int64
	Position          wal.Position
	Seq               uint64
}

// Stats returns a consistent-enough snapshot for scraping.
func (ld *Leader) Stats() LeaderStats {
	pos, seq := ld.durable.WAL().Committed()
	return LeaderStats{
		ActiveStreams:     ld.active.Load(),
		StreamsTotal:      ld.streams.Load(),
		RecordsStreamed:   ld.records.Load(),
		PrunedTotal:       ld.pruned.Load(),
		ErrorsTotal:       ld.errs.Load(),
		CheckpointsServed: ld.ckptsrvd.Load(),
		Position:          pos,
		Seq:               seq,
	}
}
