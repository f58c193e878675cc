package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"aiql/internal/cluster"
	"aiql/internal/stream"
)

// The continuous-query endpoints:
//
//	POST   /rules           register a standing AIQL rule
//	GET    /rules           list registered rules with live counters
//	DELETE /rules/{id}      unregister (disconnects subscribers)
//	GET    /subscribe/{id}  stream the rule's emissions (NDJSON, or SSE
//	                        with Accept: text/event-stream); ?since=N
//	                        replays retained emissions newer than N first
//
// Store-backed servers serve them from the local stream.Matcher; a
// coordinator proxies registration to every worker and serves merged
// emission streams (see docs/STREAMING.md and docs/CLUSTER.md).

// rulesResponse is the JSON reply to GET /rules.
type rulesResponse struct {
	Rules []stream.RuleInfo `json:"rules"`
}

func (s *Server) handleRuleCreate(w http.ResponseWriter, r *http.Request) {
	var spec stream.RuleSpec
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(body, &spec)
	}
	if err != nil {
		s.httpTraceError(w, r, http.StatusBadRequest, fmt.Errorf("decode rule: %w", err))
		return
	}
	if strings.TrimSpace(spec.Query) == "" {
		s.httpTraceError(w, r, http.StatusBadRequest, errors.New("empty rule query"))
		return
	}
	var info *stream.RuleInfo
	if s.coord != nil {
		info, err = s.coord.RegisterRule(r.Context(), spec)
	} else {
		info, err = s.matcher.Register(spec)
	}
	if err != nil {
		s.httpTraceError(w, r, ruleErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRuleList(w http.ResponseWriter, r *http.Request) {
	if s.coord != nil {
		infos, err := s.coord.Rules(r.Context())
		if err != nil {
			s.httpTraceError(w, r, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, &rulesResponse{Rules: infos})
		return
	}
	writeJSON(w, http.StatusOK, &rulesResponse{Rules: s.matcher.Rules()})
}

func (s *Server) handleRuleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.coord != nil {
		if err := s.coord.DeleteRule(r.Context(), id); err != nil {
			s.httpTraceError(w, r, ruleErrStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		return
	}
	if !s.matcher.Delete(id) {
		s.httpTraceError(w, r, http.StatusNotFound, fmt.Errorf("%w: %q", stream.ErrUnknownRule, id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// ruleErrStatus maps registration/deletion failures to HTTP statuses: the
// client's query is at fault (400), the id is taken (409), the server is
// full (429), the rule is unknown (404), or workers failed (502).
func ruleErrStatus(err error) int {
	var partial *cluster.PartialError
	switch {
	case errors.Is(err, stream.ErrTooManyRules):
		return http.StatusTooManyRequests
	case errors.Is(err, stream.ErrDuplicateRule):
		return http.StatusConflict
	case errors.Is(err, stream.ErrUnknownRule):
		return http.StatusNotFound
	case errors.As(err, &partial):
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

// subscribeHeader is the first line of every subscription stream.
type subscribeHeader struct {
	Rule    string   `json:"rule"`
	Columns []string `json:"columns"`
	// Since echoes the replay floor the client requested; FirstSeq is the
	// first sequence number this stream will deliver. FirstSeq > Since+1
	// means emissions in between had already rotated out of the rule's
	// replay ring — the gap is announced, never silent.
	Since    uint64 `json:"since"`
	FirstSeq uint64 `json:"first_seq,omitempty"`
}

// subscribeClose is the explicit in-band trailer: its presence tells a
// consumer the stream ended deliberately (reason "slow-consumer" or
// "rule-deleted"); a connection that dies without one was truncated.
type subscribeClose struct {
	Closed string `json:"closed"`
}

// emissionWriter abstracts the two wire framings (NDJSON and SSE) over one
// handler loop.
type emissionWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	sse     bool
	enc     *json.Encoder
}

func newEmissionWriter(w http.ResponseWriter, r *http.Request) *emissionWriter {
	ew := &emissionWriter{w: w}
	ew.flusher, _ = w.(http.Flusher)
	for _, accept := range r.Header.Values("Accept") {
		if strings.Contains(accept, "text/event-stream") {
			ew.sse = true
		}
	}
	if ew.sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	ew.enc = json.NewEncoder(w)
	ew.enc.SetEscapeHTML(false)
	return ew
}

// send writes one record in the negotiated framing and flushes — emissions
// are sparse and latency matters more than syscall count.
func (ew *emissionWriter) send(event string, id uint64, v any) error {
	if ew.sse {
		if _, err := fmt.Fprintf(ew.w, "event: %s\n", event); err != nil {
			return err
		}
		if id > 0 {
			if _, err := fmt.Fprintf(ew.w, "id: %d\n", id); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(ew.w, "data: "); err != nil {
			return err
		}
		if err := ew.enc.Encode(v); err != nil { // Encode appends the first \n
			return err
		}
		if _, err := io.WriteString(ew.w, "\n"); err != nil {
			return err
		}
	} else if err := ew.enc.Encode(v); err != nil {
		return err
	}
	if ew.flusher != nil {
		ew.flusher.Flush()
	}
	return nil
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.httpTraceError(w, r, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = v
	}
	if s.coord != nil {
		s.subscribeCluster(w, r, id, since)
		return
	}
	sub, info, err := s.matcher.Subscribe(id, since)
	if err != nil {
		s.httpTraceError(w, r, ruleErrStatus(err), err)
		return
	}
	defer sub.Close()
	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)
	ew := newEmissionWriter(w, r)
	if err := ew.send("hello", 0, &subscribeHeader{
		Rule: info.ID, Columns: info.Columns, Since: since, FirstSeq: sub.FirstSeq(),
	}); err != nil {
		return
	}
	for {
		select {
		case em, ok := <-sub.C():
			if !ok {
				_ = ew.send("closed", 0, &subscribeClose{Closed: sub.Reason()})
				return
			}
			if err := ew.send("match", em.Seq, &em); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// subscribeCluster serves a merged emission stream in coordinator mode: the
// coordinator subscribes to every worker (raw per-pattern sub-rules for
// multi-pattern rules, running the cross-shard join itself) and fans the
// streams in, re-stamping sequence numbers. Worker failures surface as an
// in-band error record with *cluster.PartialError detail, mirroring /scan.
func (s *Server) subscribeCluster(w http.ResponseWriter, r *http.Request, id string, since uint64) {
	if since > 0 {
		s.httpTraceError(w, r, http.StatusBadRequest,
			errors.New("since is not supported on a coordinator: merged sequence numbers are per-subscription"))
		return
	}
	rs, info, err := s.coord.SubscribeRule(r.Context(), id)
	if err != nil {
		s.httpTraceError(w, r, ruleErrStatus(err), err)
		return
	}
	defer rs.Close()
	s.subscribers.Add(1)
	defer s.subscribers.Add(-1)
	ew := newEmissionWriter(w, r)
	if err := ew.send("hello", 0, &subscribeHeader{Rule: info.ID, Columns: info.Columns}); err != nil {
		return
	}
	for {
		select {
		case em, ok := <-rs.C():
			if !ok {
				if err := rs.Err(); err != nil {
					_ = ew.send("error", 0, map[string]string{"error": err.Error()})
				} else {
					_ = ew.send("closed", 0, &subscribeClose{Closed: rs.Reason()})
				}
				return
			}
			if err := ew.send("match", em.Seq, &em); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
