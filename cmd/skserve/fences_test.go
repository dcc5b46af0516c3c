package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialkeyword/internal/fence"
)

// fenceLeakCheck fails the test if goroutines started during it (SSE
// streams, long polls) outlive it.
func fenceLeakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func registerFence(t *testing.T, ts *httptest.Server, body any) fenceInfo {
	t.Helper()
	resp := post(t, ts.URL+"/fences", body)
	if resp.StatusCode != http.StatusCreated {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("register fence: status %d: %s", resp.StatusCode, msg)
	}
	return decode[fenceInfo](t, resp)
}

func TestFenceLifecycle(t *testing.T) {
	fenceLeakCheck(t)
	_, ts := newTestServer(t, "")

	// No fences yet.
	resp, err := http.Get(ts.URL + "/fences")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[map[string][]fenceInfo](t, resp)
	if len(list["fences"]) != 0 {
		t.Fatalf("fresh server lists %d fences", len(list["fences"]))
	}

	info := registerFence(t, ts, fenceRequest{
		Region:   &fenceRect{Lo: []float64{0, 0}, Hi: []float64{10, 10}},
		Keywords: []string{"pool"},
	})
	if info.ID == 0 || info.Region == nil || info.Members != 0 {
		t.Fatalf("fence info %+v", info)
	}

	// An object inside the region with the keyword enters; long-poll sees it.
	resp = post(t, ts.URL+"/objects", addRequest{Point: []float64{5, 5}, Text: "hotel pool wifi"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add status %d", resp.StatusCode)
	}
	obj := decode[map[string]uint64](t, resp)

	resp, err = http.Get(fmt.Sprintf("%s/fences/%d/events?wait=0", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	poll := decode[fencePollResponse](t, resp)
	if len(poll.Events) != 1 || poll.Events[0].Kind != fence.Enter || poll.Events[0].Object != obj["id"] {
		t.Fatalf("poll events %+v", poll.Events)
	}

	// An object outside the region produces nothing.
	post(t, ts.URL+"/objects", addRequest{Point: []float64{50, 50}, Text: "pool"}).Body.Close()
	// A matching delete produces a leave; resume from the enter's seq.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", ts.URL, obj["id"]), nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(fmt.Sprintf("%s/fences/%d/events?since=%d&wait=0", ts.URL, info.ID, poll.Events[0].Seq))
	if err != nil {
		t.Fatal(err)
	}
	poll = decode[fencePollResponse](t, resp)
	if len(poll.Events) != 1 || poll.Events[0].Kind != fence.Leave || poll.Events[0].Object != obj["id"] {
		t.Fatalf("after delete: events %+v", poll.Events)
	}

	// GET one fence; Seq advanced by the two events.
	resp, err = http.Get(fmt.Sprintf("%s/fences/%d", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	got := decode[fenceInfo](t, resp)
	if got.Seq != 2 || got.Members != 0 {
		t.Fatalf("fence after churn: %+v", got)
	}

	// Remove it; further reads 404.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/fences/%d", ts.URL, info.ID), nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete fence status %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/fences/%d", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get removed fence status %d", resp.StatusCode)
	}
}

func TestFenceValidation(t *testing.T) {
	fenceLeakCheck(t)
	_, ts := newTestServer(t, "")
	for name, body := range map[string]any{
		"no shape":       fenceRequest{Keywords: []string{"x"}},
		"inverted":       fenceRequest{Region: &fenceRect{Lo: []float64{5, 5}, Hi: []float64{0, 0}}},
		"zero radius":    fenceRequest{Center: []float64{1, 2}},
		"bad dims":       fenceRequest{Center: []float64{1, 2, 3}, Radius: 4},
		"negative k":     fenceRequest{Center: []float64{1, 2}, Radius: 4, K: -1},
		"not json":       "}{",
		"both shapes":    fenceRequest{Region: &fenceRect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, Center: []float64{0, 0}, Radius: 1},
		"threshold only": fenceRequest{Region: &fenceRect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, Threshold: -2},
	} {
		resp := post(t, ts.URL+"/fences", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Unknown fence id paths.
	for _, url := range []string{"/fences/999", "/fences/999/events?wait=0", "/fences/nope"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", url, resp.StatusCode)
		}
	}
}

// sseFrame is one parsed Server-Sent Events message.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSE parses the next SSE frame off the stream.
func readSSE(t *testing.T, br *bufio.Reader) sseFrame {
	t.Helper()
	var f sseFrame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v (frame so far %+v)", err, f)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if f.data != "" || f.event != "" {
				return f
			}
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			f.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

func sseConnect(t *testing.T, ctx context.Context, url, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("sse status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("sse content type %q", ct)
	}
	return resp
}

// TestFenceSSE covers the streaming path end to end: history replay on
// connect, live tail, Last-Event-ID resume, and stream close when the
// fence is removed.
func TestFenceSSE(t *testing.T) {
	fenceLeakCheck(t)
	_, ts := newTestServer(t, "")
	info := registerFence(t, ts, fenceRequest{
		Center: []float64{10, 10}, Radius: 5, Keywords: []string{"espresso"},
	})
	eventsURL := fmt.Sprintf("%s/fences/%d/events", ts.URL, info.ID)

	// One event already in history before the client connects.
	resp := post(t, ts.URL+"/objects", addRequest{Point: []float64{11, 11}, Text: "espresso bar"})
	first := decode[map[string]uint64](t, resp)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := sseConnect(t, ctx, eventsURL, "")
	defer stream.Body.Close()
	br := bufio.NewReader(stream.Body)

	f := readSSE(t, br)
	if f.event != "enter" || f.id != "1" || !strings.Contains(f.data, fmt.Sprintf(`"object":%d`, first["id"])) {
		t.Fatalf("replayed frame %+v", f)
	}

	// A live mutation shows up on the open stream.
	resp = post(t, ts.URL+"/objects", addRequest{Point: []float64{9, 9}, Text: "espresso cart"})
	second := decode[map[string]uint64](t, resp)
	f = readSSE(t, br)
	if f.event != "enter" || !strings.Contains(f.data, fmt.Sprintf(`"object":%d`, second["id"])) {
		t.Fatalf("live frame %+v", f)
	}

	// Drop the connection mid-stream: the handler must notice and return
	// (the leak check and the httptest server Close would hang otherwise).
	cancel()
	stream.Body.Close()

	// Reconnect with Last-Event-ID = 1: only the second event replays.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	stream2 := sseConnect(t, ctx2, eventsURL, "1")
	br = bufio.NewReader(stream2.Body)
	f = readSSE(t, br)
	if f.id != "2" || !strings.Contains(f.data, fmt.Sprintf(`"object":%d`, second["id"])) {
		t.Fatalf("resume frame %+v", f)
	}

	// Removing the fence ends the stream from the server side.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/fences/%d", ts.URL, info.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if _, err := io.ReadAll(stream2.Body); err != nil {
		t.Fatalf("stream after fence removal: %v", err)
	}
	stream2.Body.Close()
}

// TestFenceLongPollWakeup verifies a parked long poll returns as soon as a
// matching mutation lands, not after the full wait.
func TestFenceLongPollWakeup(t *testing.T) {
	fenceLeakCheck(t)
	_, ts := newTestServer(t, "")
	info := registerFence(t, ts, fenceRequest{
		Region: &fenceRect{Lo: []float64{0, 0}, Hi: []float64{1, 1}},
	})

	type pollResult struct {
		poll fencePollResponse
		err  error
	}
	done := make(chan pollResult, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/fences/%d/events?wait=30s", ts.URL, info.ID))
		if err != nil {
			done <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var pr pollResult
		pr.err = json.NewDecoder(resp.Body).Decode(&pr.poll)
		done <- pr
	}()

	time.Sleep(50 * time.Millisecond) // let the poll park
	post(t, ts.URL+"/objects", addRequest{Point: []float64{0.5, 0.5}, Text: "anything"}).Body.Close()

	select {
	case pr := <-done:
		if pr.err != nil {
			t.Fatal(pr.err)
		}
		if len(pr.poll.Events) != 1 || pr.poll.Events[0].Kind != fence.Enter {
			t.Fatalf("woken poll events %+v", pr.poll.Events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll did not wake on mutation")
	}

	// An empty wait returns immediately even with nothing new.
	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/fences/%d/events?since=1&wait=0", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	poll := decode[fencePollResponse](t, resp)
	if len(poll.Events) != 0 || time.Since(start) > 2*time.Second {
		t.Fatalf("wait=0 poll: %d events in %v", len(poll.Events), time.Since(start))
	}
}

// TestFenceShardedBackend proves fences see mutations through the sharded
// engine with global object IDs.
func TestFenceShardedBackend(t *testing.T) {
	fenceLeakCheck(t)
	_, ts := newShardedTestServer(t, "", 4)
	info := registerFence(t, ts, fenceRequest{
		Region: &fenceRect{Lo: []float64{-90, -180}, Hi: []float64{90, 180}},
	})
	ids := seedHotels(t, ts)
	resp, err := http.Get(fmt.Sprintf("%s/fences/%d/events?wait=0", ts.URL, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	poll := decode[fencePollResponse](t, resp)
	if len(poll.Events) != len(ids) {
		t.Fatalf("got %d events for %d adds", len(poll.Events), len(ids))
	}
	seen := map[uint64]bool{}
	for _, ev := range poll.Events {
		if ev.Kind != fence.Enter {
			t.Fatalf("event %+v", ev)
		}
		seen[ev.Object] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("global id %d missing from fence events (got %v)", id, seen)
		}
	}
	// Deleting by global ID produces a leave for the same global ID.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", ts.URL, ids[1]), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	resp, err = http.Get(fmt.Sprintf("%s/fences/%d/events?since=%d&wait=0", ts.URL, info.ID, len(ids)))
	if err != nil {
		t.Fatal(err)
	}
	poll = decode[fencePollResponse](t, resp)
	if len(poll.Events) != 1 || poll.Events[0].Kind != fence.Leave || poll.Events[0].Object != ids[1] {
		t.Fatalf("sharded delete events %+v", poll.Events)
	}
}

// TestFenceMetricsExposed checks the sk_fence_* families reach /metrics.
func TestFenceMetricsExposed(t *testing.T) {
	fenceLeakCheck(t)
	_, ts := newTestServer(t, "")
	registerFence(t, ts, fenceRequest{Region: &fenceRect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}})
	post(t, ts.URL+"/objects", addRequest{Point: []float64{0.5, 0.5}, Text: "x"}).Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sk_fence_registered 1",
		`sk_fence_events_total{kind="enter"} 1`,
		"sk_fence_eval_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFenceReplicaMirrorsLeader registers the same fence on a leader and
// its read replica and checks the replica's event stream converges to the
// leader's as replication drains — fences are server-local, but the
// mutation stream feeding them is the same.
func TestFenceReplicaMirrorsLeader(t *testing.T) {
	fenceLeakCheck(t)
	_, leaderTS := newLeaderTestServer(t, t.TempDir())
	srv, replicaTS := newReplicaTestServer(t, t.TempDir(), leaderTS.URL, serverOptions{readMode: "eventual"})

	q := fenceRequest{
		Region:   &fenceRect{Lo: []float64{0, 0}, Hi: []float64{20, 20}},
		Keywords: []string{"taco"},
	}
	lf := registerFence(t, leaderTS, q)
	rf := registerFence(t, replicaTS, q) // replicas accept fences despite 403 on writes

	post(t, leaderTS.URL+"/objects", addRequest{Point: []float64{5, 5}, Text: "taco stand"}).Body.Close()
	post(t, leaderTS.URL+"/objects", addRequest{Point: []float64{50, 50}, Text: "taco truck"}).Body.Close()
	resp := post(t, leaderTS.URL+"/objects", addRequest{Point: []float64{6, 6}, Text: "taqueria taco bar"})
	in := decode[map[string]uint64](t, resp)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/objects/%d", leaderTS.URL, in["id"]), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	if err := srv.follower.WaitFor(srv.leaderToken(t, leaderTS), 10*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	events := func(ts *httptest.Server, id uint64) []fence.Event {
		resp, err := http.Get(fmt.Sprintf("%s/fences/%d/events?wait=0", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		return decode[fencePollResponse](t, resp).Events
	}
	lev, rev := events(leaderTS, lf.ID), events(replicaTS, rf.ID)
	if len(lev) != 3 { // enter, enter, leave
		t.Fatalf("leader events %+v", lev)
	}
	if len(lev) != len(rev) {
		t.Fatalf("leader %d events, replica %d", len(lev), len(rev))
	}
	for i := range lev {
		l, r := lev[i], rev[i]
		l.Fence, r.Fence = 0, 0 // fence ids are local to each registry
		if l != r {
			t.Fatalf("event %d: leader %+v, replica %+v", i, lev[i], rev[i])
		}
	}
}
