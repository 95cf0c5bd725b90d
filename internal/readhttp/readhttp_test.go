package readhttp

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// FuzzServeWindow checks window against the documented ?off=&n= rules: a
// malformed value is a 400, a well-formed off outside [0, size] a 416, n
// is clamped to the tail, and off == size is a valid empty window. An
// accepted window always lies inside the stream.
func FuzzServeWindow(f *testing.F) {
	f.Add("abc", "", int64(100))    // malformed off
	f.Add("", "-1", int64(100))     // malformed n
	f.Add("101", "", int64(100))    // off past the end
	f.Add("97", "9999", int64(100)) // n clamped to the tail
	f.Add("100", "", int64(100))    // off == size: empty window
	f.Fuzz(func(t *testing.T, offS, nS string, size int64) {
		if size < 0 {
			size = -(size + 1) // stream sizes are non-negative
		}
		q := url.Values{}
		if offS != "" {
			q.Set("off", offS)
		}
		if nS != "" {
			q.Set("n", nS)
		}
		off, n, status, msg := window(q, size)

		offV, offErr := strconv.ParseInt(offS, 10, 64)
		nV, nErr := strconv.ParseInt(nS, 10, 64)
		wantStatus, wantOff, wantN := http.StatusOK, int64(0), size
		switch {
		case offS != "" && offErr != nil:
			wantStatus = http.StatusBadRequest
		case offS != "" && (offV < 0 || offV > size):
			wantStatus = http.StatusRequestedRangeNotSatisfiable
		case nS != "" && (nErr != nil || nV < 0):
			wantStatus = http.StatusBadRequest
		default:
			if offS != "" {
				wantOff = offV
			}
			wantN = size - wantOff
			if nS != "" && nV < wantN {
				wantN = nV
			}
		}
		if status != wantStatus {
			t.Fatalf("off=%q n=%q size=%d: status %d (%q), want %d", offS, nS, size, status, msg, wantStatus)
		}
		if status != http.StatusOK {
			if msg == "" {
				t.Fatalf("off=%q n=%q size=%d: status %d without a message", offS, nS, size, status)
			}
			return
		}
		if off != wantOff || n != wantN {
			t.Fatalf("off=%q n=%q size=%d: window (%d, %d), want (%d, %d)", offS, nS, size, off, n, wantOff, wantN)
		}
		if off < 0 || n < 0 || off+n > size {
			t.Fatalf("off=%q n=%q size=%d: window (%d, %d) outside the stream", offS, nS, size, off, n)
		}
	})
}
