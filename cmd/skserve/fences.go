package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spatialkeyword"
	"spatialkeyword/internal/fence"
	"spatialkeyword/internal/geo"
)

// Standing queries ("geofences"). The server owns a fence.Registry fed by
// the backend's mutation observer: every applied Add/Delete — local write
// or replicated apply — is evaluated against the registered fences, and
// matching changes stream to subscribers. Fences are server-local state
// (they are not part of the replicated dataset): a replica accepts fence
// registrations even though object writes answer 403, and a leader and a
// replica holding the same fences emit the same events as the stream
// drains.
//
//	POST   /fences              register; body: {"region":{"lo":[..],"hi":[..]}}
//	                            or {"center":[..],"radius":R}, plus optional
//	                            "keywords":[..], "k":N, "threshold":D → fence info
//	GET    /fences              list registered fences
//	GET    /fences/{id}         one fence's info
//	DELETE /fences/{id}         remove (closes all event streams)
//	GET    /fences/{id}/events  live events: SSE when the client accepts
//	                            text/event-stream, long-poll JSON otherwise
//	                            (?since=SEQ&wait=DUR&max=N)

// attachFences wires a fence registry to the backend's mutation stream
// (every backend reports global object IDs), matching keywords with the
// backend's own text pipeline. Called from newServer before
// the server accepts traffic; the observer runs on mutation paths that hold
// the backend's write lock and only feeds the registry.
func (s *server) attachFences() {
	reg := fence.NewRegistry(fence.Options{Analyzer: s.eng.Corpus().Analyzer, Metrics: fence.NewMetrics(s.reg)})
	s.eng.SetMutationObserver(func(ev spatialkeyword.MutationEvent) {
		reg.Apply(fence.Mutation{
			Delete: ev.Delete,
			ID:     ev.ID,
			Point:  geo.NewPoint(ev.Point...),
			Text:   ev.Text,
		})
	})
	s.fences = reg
}

// fenceRequest is the POST /fences payload.
type fenceRequest struct {
	Region    *fenceRect `json:"region,omitempty"`
	Center    []float64  `json:"center,omitempty"`
	Radius    float64    `json:"radius,omitempty"`
	Keywords  []string   `json:"keywords,omitempty"`
	K         int        `json:"k,omitempty"`
	Threshold float64    `json:"threshold,omitempty"`
}

type fenceRect struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// fenceInfo is the JSON shape of one registered fence.
type fenceInfo struct {
	ID          uint64     `json:"id"`
	Region      *fenceRect `json:"region,omitempty"`
	Center      []float64  `json:"center,omitempty"`
	Radius      float64    `json:"radius,omitempty"`
	Keywords    []string   `json:"keywords,omitempty"`
	K           int        `json:"k,omitempty"`
	Threshold   float64    `json:"threshold,omitempty"`
	Members     int        `json:"members"`
	Seq         uint64     `json:"seq"`
	Subscribers int        `json:"subscribers"`
	Dropped     uint64     `json:"dropped"`
}

func infoJSON(in fence.Info) fenceInfo {
	out := fenceInfo{
		ID:          in.ID,
		Keywords:    in.Query.Keywords,
		K:           in.Query.K,
		Threshold:   in.Query.Threshold,
		Members:     in.Members,
		Seq:         in.Seq,
		Subscribers: in.Subscribers,
		Dropped:     in.Dropped,
	}
	if in.Query.Center != nil {
		out.Center = in.Query.Center
		out.Radius = in.Query.Radius
	} else {
		out.Region = &fenceRect{Lo: in.Query.Region.Lo, Hi: in.Query.Region.Hi}
	}
	return out
}

func (s *server) handleFenceAdd(w http.ResponseWriter, r *http.Request) {
	var req fenceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q := fence.Query{
		Keywords:  req.Keywords,
		K:         req.K,
		Threshold: req.Threshold,
	}
	if req.Region != nil {
		q.Region = geo.Rect{Lo: req.Region.Lo, Hi: req.Region.Hi}
	}
	if req.Center != nil {
		q.Center = req.Center
		q.Radius = req.Radius
	}
	id, err := s.fences.Add(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	info, _ := s.fences.Get(id)
	writeJSON(w, http.StatusCreated, infoJSON(info))
}

func (s *server) handleFenceList(w http.ResponseWriter, r *http.Request) {
	infos := s.fences.List()
	out := make([]fenceInfo, len(infos))
	for i, in := range infos {
		out[i] = infoJSON(in)
	}
	writeJSON(w, http.StatusOK, map[string]any{"fences": out})
}

func (s *server) fenceID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad fence id: %w", err))
		return 0, false
	}
	return id, true
}

func (s *server) handleFenceGet(w http.ResponseWriter, r *http.Request) {
	id, ok := s.fenceID(w, r)
	if !ok {
		return
	}
	info, ok := s.fences.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fence.ErrNoFence)
		return
	}
	writeJSON(w, http.StatusOK, infoJSON(info))
}

func (s *server) handleFenceDelete(w http.ResponseWriter, r *http.Request) {
	id, ok := s.fenceID(w, r)
	if !ok {
		return
	}
	if err := s.fences.Remove(id); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFenceEvents serves a fence's event stream. Clients accepting
// text/event-stream get Server-Sent Events: one message per fence event,
// the fence sequence as the SSE id (so EventSource reconnects resume via
// Last-Event-ID), and a "lagged" event first when the requested resume
// point has already left the history ring. Everyone else gets a long
// poll: the request returns as soon as events after ?since exist (or
// ?wait expires), as {"events":[...],"lagged":bool}.
func (s *server) handleFenceEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := s.fenceID(w, r)
	if !ok {
		return
	}
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad since: %w", err))
			return
		}
		since = n
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.fenceSSE(w, r, id, since)
		return
	}
	s.fenceLongPoll(w, r, id, since)
}

// fenceSSE streams events until the client disconnects or the fence is
// removed. The subscription is taken before the history replay, so no
// event between replay and live tail can be lost — duplicates from that
// overlap are suppressed by sequence number.
func (s *server) fenceSSE(w http.ResponseWriter, r *http.Request, id, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			since = n
		}
	}
	sub, err := s.fences.Subscribe(id, 0)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, lagged, err := s.fences.EventsSince(id, since, 0)
	if err != nil {
		return // fence vanished between Subscribe and here
	}
	if lagged {
		fmt.Fprintf(w, "event: lagged\ndata: {\"since\":%d}\n\n", since)
	}
	last := since
	for _, ev := range replay {
		writeSSEEvent(w, ev)
		last = ev.Seq
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.C:
			if !ok {
				return // fence removed
			}
			if ev.Seq <= last {
				continue // already replayed from history
			}
			last = ev.Seq
			writeSSEEvent(w, ev)
			flusher.Flush()
		}
	}
}

func writeSSEEvent(w http.ResponseWriter, ev fence.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
}

// fencePollResponse is the long-poll JSON payload.
type fencePollResponse struct {
	Events []fence.Event `json:"events"`
	Lagged bool          `json:"lagged"`
}

func (s *server) fenceLongPoll(w http.ResponseWriter, r *http.Request, id, since uint64) {
	q := r.URL.Query()
	wait := 25 * time.Second
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 || d > 5*time.Minute {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q", v))
			return
		}
		wait = d
	}
	max := 0
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
		max = n
	}
	// Subscribe before the history check so an event landing between the
	// two cannot be missed; the subscription is only used as a wakeup.
	sub, err := s.fences.Subscribe(id, 1)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	defer sub.Close()
	evs, lagged, err := s.fences.EventsSince(id, since, max)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	if len(evs) == 0 && wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-r.Context().Done():
			return
		case <-timer.C:
		case _, ok := <-sub.C:
			if !ok { // fence removed while waiting
				httpError(w, http.StatusNotFound, fence.ErrNoFence)
				return
			}
			evs, lagged, err = s.fences.EventsSince(id, since, max)
			if err != nil {
				httpError(w, http.StatusNotFound, err)
				return
			}
		}
	}
	if evs == nil {
		evs = []fence.Event{}
	}
	writeJSON(w, http.StatusOK, fencePollResponse{Events: evs, Lagged: lagged})
}
