package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestLogRecordsRender renders each record kind and compares the line with
// fmt.Sprintf of the format the decision log has always used, host indexes
// of one and two digits included.
func TestLogRecordsRender(t *testing.T) {
	for _, tc := range []struct {
		r      logRecord
		format string
		args   []any
	}{
		{logRecord{kind: logPlace, guest: "d007", pages: 12, src: 3}, "place %s(%dp) -> host%d", []any{"d007", 12, 3}},
		{logRecord{kind: logPlace, guest: "g1234", pages: 1 << 20, src: 15}, "place %s(%dp) -> host%d", []any{"g1234", 1 << 20, 15}},
		{logRecord{kind: logReject, guest: "d100", pages: 44}, "reject %s(%dp)", []any{"d100", 44}},
		{logRecord{kind: logRemove, guest: "d042", src: 63}, "remove %s <- host%d", []any{"d042", 63}},
		{logRecord{kind: logMigrate, guest: "d003", src: 0, dst: 11}, "migrate %s host%d->host%d", []any{"d003", 0, 11}},
		{logRecord{kind: logAbort, guest: "d004", src: 12, dst: 9}, "abort %s host%d->host%d", []any{"d004", 12, 9}},
		{logRecord{kind: logConsolidate, guest: "d005", src: 10}, "consolidate host%d stopped at %s", []any{10, "d005"}},
		{logRecord{kind: logLevel, guest: "d006", src: 14, dst: 2}, "level host%d->host%d blocked at %s", []any{14, 2, "d006"}},
	} {
		want := fmt.Sprintf(tc.format, tc.args...)
		if got := string(tc.r.appendTo(nil)); got != want {
			t.Errorf("kind %d renders %q, want %q", tc.r.kind, got, want)
		}
		c := &Cluster{log: []logRecord{tc.r, tc.r}}
		if got := c.Log(); len(got) != 2 || got[0] != want || got[1] != want {
			t.Errorf("kind %d: Log() = %q, want two lines %q", tc.r.kind, got, want)
		}
	}
}

// TestGuestNameMatchesFormat: churn names each arrival with the string
// fmt's "d%03d" makes, padded below a thousand and unpadded past it.
func TestGuestNameMatchesFormat(t *testing.T) {
	for _, seq := range []int{0, 7, 9, 10, 42, 99, 100, 999, 1000, 65535, 1 << 40} {
		if got, want := guestName(seq), fmt.Sprintf("d%03d", seq); got != want {
			t.Errorf("guestName(%d) = %q, want %q", seq, got, want)
		}
	}
}

// TestLogDigestPinned pins the SHA-256 of a 48-event churn's placement log
// (each line newline-terminated) for both policies, so a drift in how
// records render fails here and not only in the benchmark's fleet oracle.
func TestLogDigestPinned(t *testing.T) {
	want := map[Policy]string{
		BinPack: "a84323e8a08cc02e8d90aee722b64b4956c629dc5ec4d019f9e49cb8749ff406",
		Spread:  "e208b19fa0fbe375463a0641e0636635ed4bf75d11796b71a398da0572ee408f",
	}
	for _, p := range Policies {
		log, _, _ := churnRun(t, 2, p, 8, nil)
		h := sha256.New()
		for _, l := range log {
			fmt.Fprintln(h, l)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[p] {
			t.Errorf("%s: log digest %s, want %s", p, got, want[p])
		}
	}
}
