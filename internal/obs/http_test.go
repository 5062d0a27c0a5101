package obs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerSnapshot: a plain GET returns the open spans as JSON.
func TestHandlerSnapshot(t *testing.T) {
	tr := New()
	root := tr.Start("run")
	root.Child("phase1") // left open: must show in the live state

	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st DebugState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Active) != 2 {
		t.Fatalf("%d active spans, want 2", len(st.Active))
	}
	if st.Active[0].Name != "run" || !st.Active[0].Open {
		t.Fatalf("first active span %+v, want open run", st.Active[0])
	}
	if st.AtNS <= 0 {
		t.Fatal("missing timestamp")
	}
}

// TestHandlerNilTolerant: the endpoint must work with no tracer installed.
func TestHandlerNilTolerant(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st DebugState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Active) != 0 {
		t.Fatalf("nil state not empty: %+v", st)
	}
}

// TestHandlerStream: ?stream=... yields NDJSON lines until the client
// disconnects.
func TestHandlerStream(t *testing.T) {
	tr := New()
	tr.Start("run")
	srv := httptest.NewServer(Handler(tr))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?stream=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() && lines < 3 {
		var st DebugState
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		if len(st.Active) != 1 {
			t.Fatalf("stream line %d: %d active spans", lines, len(st.Active))
		}
		lines++
	}
	resp.Body.Close() // disconnect ends the stream server-side
	if lines != 3 {
		t.Fatalf("read %d stream lines, want 3", lines)
	}

	// Bad interval is a 400, not a hang.
	resp2, err := srv.Client().Get(srv.URL + "?stream=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 400 {
		t.Fatalf("bad interval status %d", resp2.StatusCode)
	}
}
