package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestLogRecordsRender renders each record kind and compares the line with
// fmt.Sprintf of the format the decision log has always used: host indexes
// of one and two digits, 63 (E13's largest fleet) and the largest a record
// holds, and page counts of 1<<20 and the largest a record holds.
func TestLogRecordsRender(t *testing.T) {
	const top, topHost = maxGuestPages, maxHosts - 1
	for _, tc := range []struct {
		guest  string
		r      logRecord
		format string
		args   []any
	}{
		{"d007", logRecord{kind: logPlace, pages: 12, src: 3}, "place %s(%dp) -> host%d", []any{"d007", 12, 3}},
		{"g1234", logRecord{kind: logPlace, pages: 1 << 20, src: 15}, "place %s(%dp) -> host%d", []any{"g1234", 1 << 20, 15}},
		{"big", logRecord{kind: logPlace, pages: top, src: topHost}, "place %s(%dp) -> host%d", []any{"big", uint64(top), topHost}},
		{"d100", logRecord{kind: logReject, pages: 44}, "reject %s(%dp)", []any{"d100", 44}},
		{"huge", logRecord{kind: logReject, pages: top}, "reject %s(%dp)", []any{"huge", uint64(top)}},
		{"d042", logRecord{kind: logRemove, src: 63}, "remove %s <- host%d", []any{"d042", 63}},
		{"d043", logRecord{kind: logRemove, src: topHost}, "remove %s <- host%d", []any{"d043", topHost}},
		{"d003", logRecord{kind: logMigrate, src: 0, dst: 11}, "migrate %s host%d->host%d", []any{"d003", 0, 11}},
		{"d013", logRecord{kind: logMigrate, src: topHost, dst: 63}, "migrate %s host%d->host%d", []any{"d013", topHost, 63}},
		{"d004", logRecord{kind: logAbort, src: 12, dst: 9}, "abort %s host%d->host%d", []any{"d004", 12, 9}},
		{"d014", logRecord{kind: logAbort, src: 63, dst: topHost}, "abort %s host%d->host%d", []any{"d014", 63, topHost}},
		{"d005", logRecord{kind: logConsolidate, src: 10}, "consolidate host%d stopped at %s", []any{10, "d005"}},
		{"d015", logRecord{kind: logConsolidate, src: topHost}, "consolidate host%d stopped at %s", []any{topHost, "d015"}},
		{"d006", logRecord{kind: logLevel, src: 14, dst: 2}, "level host%d->host%d blocked at %s", []any{14, 2, "d006"}},
		{"d016", logRecord{kind: logLevel, src: topHost, dst: 63}, "level host%d->host%d blocked at %s", []any{topHost, 63, "d016"}},
	} {
		want := fmt.Sprintf(tc.format, tc.args...)
		// The guest's name sits behind another in the table, so a record
		// that ignored its index would render the wrong one.
		names := []string{"other", tc.guest}
		tc.r.name = 1
		if got := string(tc.r.appendTo(nil, names)); got != want {
			t.Errorf("kind %d renders %q, want %q", tc.r.kind, got, want)
		}
		c := &Cluster{log: []logRecord{tc.r, tc.r}, names: names}
		if got := c.Log(); len(got) != 2 || got[0] != want || got[1] != want {
			t.Errorf("kind %d: Log() = %q, want two lines %q", tc.r.kind, got, want)
		}
	}
}

// TestLogRecordAllocatesSixteenBytes: a placement-log record is at most
// 16 bytes and holds no pointer, so a churn event's records cost a few
// words and nothing for the garbage collector to scan.
func TestLogRecordAllocatesSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(logRecord{}); n > 16 {
		t.Fatalf("logRecord is %d bytes, want at most 16", n)
	}
}

// TestLogSaysWhatWasDecided: a log line names the guest and the size as
// they were when the decision was made, whatever a caller later does to
// the Guest's exported fields, and removing a renamed guest still drops
// the name it was placed under.
func TestLogSaysWhatWasDecided(t *testing.T) {
	c, err := New(Config{Hosts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := c.Place("orig", 16)
	if err != nil {
		t.Fatal(err)
	}
	g.Name, g.Nominal = "renamed", 99
	if _, err := c.MigrateGuest("orig", 1-g.Host()); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("orig"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Guest("orig"); ok {
		t.Fatal("a removed guest is still placed under its name")
	}
	want := []string{"place orig(16p) -> host0", "migrate orig host0->host1", "remove orig <- host1"}
	if got := c.Log(); !slices.Equal(got, want) {
		t.Fatalf("Log() = %q, want %q", got, want)
	}
}

// TestPastLogLimitsRefused: a fleet with more hosts than a record's host
// index holds, and a guest with more pages than its page count holds, are
// refused with ErrTooLarge before anything boots or is logged; the limits
// themselves are accepted as far as the log is concerned.
func TestPastLogLimitsRefused(t *testing.T) {
	if _, err := New(Config{Hosts: maxHosts + 1}, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("New with %d hosts: err = %v, want ErrTooLarge", maxHosts+1, err)
	}
	if strconv.IntSize == 32 {
		t.Skip("an int holds no page count past the log's limit")
	}
	c, err := New(Config{Hosts: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	top := uint64(maxGuestPages)
	if _, err := c.Place("past", int(top+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Place of %d pages: err = %v, want ErrTooLarge", top+1, err)
	}
	// The largest count a record holds gets through to admission, which
	// rejects it and logs the size it was asked for.
	if _, err := c.Place("top", int(top)); !errors.Is(err, ErrNoHostFits) {
		t.Fatalf("Place of %d pages: err = %v, want ErrNoHostFits", top, err)
	}
	want := []string{fmt.Sprintf("reject top(%dp)", top)}
	if got := c.Log(); !slices.Equal(got, want) {
		t.Fatalf("Log() = %q, want %q", got, want)
	}
	if st := c.Stats(); st.Rejected != 1 || st.Placed != 0 {
		t.Fatalf("stats %+v, want one rejection", st)
	}
}

// TestRejectionText: Place's admission refusal reads exactly what
// fmt.Errorf("%w: %q (%d pages)", ErrNoHostFits, name, pages) did, names
// that need quoting and escaping included, and still matches
// ErrNoHostFits.
func TestRejectionText(t *testing.T) {
	c, err := New(Config{Hosts: 1, HostFrames: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"d042", "", `q"uote\`, "tab\tnl\n", "ünï", "\xff\x00bad", "g" + strings.Repeat("9", 40)} {
		pages := 1000 + len(name)
		_, err := c.Place(name, pages)
		if !errors.Is(err, ErrNoHostFits) {
			t.Fatalf("Place(%q, %d): err = %v, want ErrNoHostFits", name, pages, err)
		}
		if want := fmt.Errorf("%w: %q (%d pages)", ErrNoHostFits, name, pages).Error(); err.Error() != want {
			t.Fatalf("Place(%q, %d) says %q, want %q", name, pages, err.Error(), want)
		}
	}
}

// TestBadSizeRefused: Place refuses a size of 0 or -1 with ErrBadSize, in
// the words fmt.Errorf gave the refusal before it was typed, and neither
// counts nor logs it.
func TestBadSizeRefused(t *testing.T) {
	c, err := New(Config{Hosts: 1, HostFrames: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, pages := range []int{0, -1} {
		_, err := c.Place("g", pages)
		if !errors.Is(err, ErrBadSize) {
			t.Fatalf("Place(%q, %d): err = %v, want ErrBadSize", "g", pages, err)
		}
		if want := fmt.Sprintf("cluster: guest %q needs a positive size, got %d", "g", pages); err.Error() != want {
			t.Fatalf("Place(%q, %d) says %q, want %q", "g", pages, err.Error(), want)
		}
	}
	if st, log := c.Stats(), c.Log(); st.Placed != 0 || st.Rejected != 0 || len(log) != 0 {
		t.Fatalf("stats %+v and log %q after two refusals, want neither", st, log)
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
