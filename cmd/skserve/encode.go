package main

import (
	"net/http"
	"strconv"
	"sync"

	"spatialkeyword/internal/jsonenc"
)

// Response encoding. /search, /ranked and /query answer with bodies appended
// field by field (internal/jsonenc) into a pooled buffer instead of going
// through encoding/json's reflection: a ranked answer carries tens of
// kilobytes of row text, and reflecting over it and escaping it a byte at a
// time was a seventh of the server's CPU. The bytes are exactly what
// json.NewEncoder(w).Encode(resp) writes; TestAppendedBodiesMatchEncodingJSON
// holds every body shape to it.

// appendedResponse is a response whose JSON body appends itself, false when
// it holds a float JSON cannot carry.
type appendedResponse interface {
	appendJSON(dst []byte) ([]byte, bool)
}

// respBufs holds the buffers appended responses are built in.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended sends r as a 200 with an appended body. A response holding a
// NaN or infinity goes through writeJSON, whose encoder refuses it: the 500
// and its error body stay what they always were.
func writeAppended(w http.ResponseWriter, r appendedResponse) {
	bp := respBufs.Get().(*[]byte)
	defer respBufs.Put(bp)
	body, ok := r.appendJSON((*bp)[:0])
	*bp = body
	if !ok {
		writeJSON(w, http.StatusOK, r)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// writeBody sends a whole JSON body with its Content-Length, so the server
// writes it at once rather than in chunks.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // best effort to a client
}

func (r *searchResponse) appendJSON(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"results":`...)
	dst, ok := jsonenc.Results(dst, r.Results)
	if r.Stats != nil {
		dst = append(dst, `,"stats":`...)
		dst = jsonenc.Stats(dst, r.Stats)
	}
	return append(dst, "}\n"...), ok
}

func (r *rankedResponse) appendJSON(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"results":`...)
	dst, ok := jsonenc.Ranked(dst, r.Results)
	return append(dst, "}\n"...), ok
}

func (r *queryResponse) appendJSON(dst []byte) ([]byte, bool) {
	dst = append(dst, `{"query":`...)
	dst = jsonenc.String(dst, r.Query)
	ok := true
	if len(r.Results) > 0 {
		dst = append(dst, `,"results":`...)
		dst, ok = jsonenc.Results(dst, r.Results)
	}
	if len(r.Ranked) > 0 && ok {
		dst = append(dst, `,"ranked":`...)
		dst, ok = jsonenc.Ranked(dst, r.Ranked)
	}
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(r.Count), 10)
	if len(r.Explain) > 0 {
		dst = append(dst, `,"explain":`...)
		dst = jsonenc.Strings(dst, r.Explain)
	}
	return append(dst, "}\n"...), ok
}
