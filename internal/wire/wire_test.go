package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// readerSizes are the bufio buffer sizes every decode test reads
// through: the default, which holds all but the largest frames, and the
// smallest bufio allows, which sends every frame of more than 12 payload
// bytes down Read's copying branch.
var readerSizes = []int{4096, 16}

// maxWaitFor is the largest frame a client can send: MaxWatch watches,
// each a MaxName-byte name with a maximal level, about 17 KB in all.
func maxWaitFor() Frame {
	w := make([]Watch, MaxWatch)
	for i := range w {
		w[i] = Watch{Name: strings.Repeat(string(rune('a'+i%26)), MaxName), Level: ^uint64(0) - uint64(i)}
	}
	return Frame{Op: OpWaitFor, ID: ^uint64(0), Pred: predicate.KindThreshold, K: MaxWatch, Watch: w}
}

// clientBatch is an OpIncrements frame as long as the remote client
// makes one: entries are appended with AppendInc while the frame, length
// prefix included, stays within 4 KiB (counterd's read buffer) less
// MaxInc. A binding every 100 entries, references between them.
func clientBatch() (Frame, []byte) {
	f := Frame{Op: OpIncrements, Seq: 1 << 32}
	buf := Append(nil, &f)
	for i := 0; len(buf) <= 4096-MaxInc; i++ {
		e := Inc{Slot: uint64(i % MaxSlots), Amount: uint64(i)}
		if i%100 == 0 {
			e.Name = fmt.Sprintf("batched-%d", i)
		}
		f.Incs = append(f.Incs, e)
		buf = AppendInc(buf, 0, e)
	}
	return f, buf
}

// frames covering every opcode and every field, including zero values,
// maximal uvarints and a frame larger than bufio's default buffer.
func sampleFrames() []Frame {
	batch, _ := clientBatch()
	return []Frame{
		{Op: OpHello, Session: 0, Seq: Version},
		{Op: OpHello, Session: ^uint64(0), Seq: 7},
		{Op: OpIncrement, Name: "jobs", Seq: 42, Amount: 3},
		{Op: OpIncrement, Name: "", Seq: 0, Amount: ^uint64(0)},
		// Bindings and references, on both sides of the slot whose
		// reference takes a second uvarint byte, and the highest slot.
		{Op: OpIncrements, Seq: 7, Incs: []Inc{
			{Slot: 0, Name: "jobs", Amount: 1}, {Slot: 0, Amount: 2},
			{Slot: 126, Name: "b", Amount: 0}, {Slot: 126, Amount: 3}, {Slot: 127, Amount: 1 << 40},
			{Slot: MaxSlots - 1, Name: "c", Amount: 4}, {Slot: MaxSlots - 1, Amount: 5},
		}},
		{Op: OpIncrements, Seq: ^uint64(0), Incs: []Inc{
			{Slot: 3, Name: strings.Repeat("m", MaxName), Amount: ^uint64(0)},
		}},
		batch,
		{Op: OpCheck, Name: "jobs", ID: 9, Level: 1 << 40},
		{Op: OpSentinel, Name: "jobs", ID: 10, Level: 1 << 40},
		{Op: OpCancel, ID: 9},
		{Op: OpReset, Name: "phase", ID: 11},
		{Op: OpStats, Name: "phase", ID: 12},
		{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 0xdeadbeef},
		{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 0},
		{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 0xdeadbeef, Features: FeatureWaitFor | FeatureSentinel},
		{Op: OpWaitFor, ID: 13, Pred: predicate.KindSum, Target: 1 << 50, Watch: []Watch{
			{Name: "a"}, {Name: "b"},
		}},
		{Op: OpWaitFor, ID: 14, Pred: predicate.KindThreshold, K: 3, Watch: []Watch{
			{Name: "q0", Level: 7}, {Name: "q1", Level: 7}, {Name: "q2", Level: 9},
			{Name: "q3", Level: ^uint64(0)}, {Name: "q4", Level: 1},
		}},
		maxWaitFor(),
		{Op: OpWaitForCancel, ID: 14},
		{Op: OpWake, ID: 9, Level: 1 << 40},
		{Op: OpCancelled, ID: 9},
		{Op: OpIncAck, Seq: 42},
		{Op: OpResetOK, ID: 11},
		{Op: OpError, ID: 11, Msg: "counter busy: goroutines suspended"},
		{Op: OpStatsReply, ID: 12, Stats: core.Stats{
			PeakLevels: 1, SatisfiedLevels: 2, Broadcasts: 3, ChannelCloses: 4,
			Suspends: 5, ImmediateChecks: 6, Increments: 7, SpinRounds: 8,
			FastPathIncrements: 9, Flushes: 10,
		}},
	}
}

// internTable returns an intern hook backed by a map that keeps every
// name it sees, as a server connection's table does.
func internTable() (intern func([]byte) string, seen map[string]string) {
	seen = make(map[string]string)
	return func(b []byte) string {
		if s, ok := seen[string(b)]; ok {
			return s
		}
		s := string(b)
		seen[s] = s
		return s
	}, seen
}

// TestRoundTripEveryOpcode decodes every sample through each reader
// size, with and without an intern hook.
func TestRoundTripEveryOpcode(t *testing.T) {
	for _, size := range readerSizes {
		intern, _ := internTable()
		for _, f := range sampleFrames() {
			buf := Append(nil, &f)
			got, err := Read(bufio.NewReaderSize(bytes.NewReader(buf), size))
			if err != nil {
				t.Fatalf("%s, %d-byte reader: Read: %v", f.Op, size, err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Errorf("%s, %d-byte reader: round trip = %+v, want %+v", f.Op, size, got, f)
			}
			got = Frame{}
			err = ReadInterned(bufio.NewReaderSize(bytes.NewReader(buf), size), intern, &got)
			if err != nil {
				t.Fatalf("%s, %d-byte reader: ReadInterned: %v", f.Op, size, err)
			}
			if !reflect.DeepEqual(got, f) {
				t.Errorf("%s, %d-byte reader: interned round trip = %+v, want %+v", f.Op, size, got, f)
			}
		}
	}
}

// TestBatchedFrames writes every sample frame into one buffer — the
// shape both sides' write batching produces — and reads them back in
// order, ending on a clean io.EOF. The frames are compared only after
// the whole stream is read, when the reader's buffer has been refilled
// many times over: a decoded field that aliased it would have changed.
func TestBatchedFrames(t *testing.T) {
	var buf []byte
	frames := sampleFrames()
	for i := range frames {
		buf = Append(buf, &frames[i])
	}
	for _, size := range readerSizes {
		br := bufio.NewReaderSize(bytes.NewReader(buf), size)
		var got []Frame
		for i := range frames {
			f, err := Read(br)
			if err != nil {
				t.Fatalf("%d-byte reader, frame %d: %v", size, i, err)
			}
			got = append(got, f)
		}
		if _, err := Read(br); err != io.EOF {
			t.Fatalf("%d-byte reader, after last frame: err = %v, want io.EOF", size, err)
		}
		for i, want := range frames {
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%d-byte reader, frame %d = %+v, want %+v", size, i, got[i], want)
			}
		}
	}
}

// TestReusedFrame decodes every sample frame, forwards and then
// backwards, from one batched stream into one reused Frame, through each
// reader size, with and without an intern hook. Each result must equal
// its sample: no field of the frame decoded before it (a Watch list, a
// Msg, Stats, Features) may carry over. Forwards, every opcode follows a
// different one; backwards, each sample follows what preceded it the
// other way, so a frame with a field set is followed by one without it
// in both orders.
func TestReusedFrame(t *testing.T) {
	frames := sampleFrames()
	var order []int
	for i := range frames {
		order = append(order, i)
	}
	for i := len(frames) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	var buf []byte
	for _, i := range order {
		buf = Append(buf, &frames[i])
	}
	interned, _ := internTable()
	for _, size := range readerSizes {
		for _, intern := range []func([]byte) string{nil, interned} {
			br := bufio.NewReaderSize(bytes.NewReader(buf), size)
			var f Frame
			for k, i := range order {
				if err := ReadInterned(br, intern, &f); err != nil {
					t.Fatalf("%d-byte reader, frame %d (%s): %v", size, k, frames[i].Op, err)
				}
				if !reflect.DeepEqual(f, frames[i]) {
					t.Fatalf("%d-byte reader, frame %d: decoded into a reused frame = %+v, want %+v", size, k, f, frames[i])
				}
			}
			if err := ReadInterned(br, intern, &f); err != io.EOF {
				t.Fatalf("%d-byte reader, after last frame: err = %v, want io.EOF", size, err)
			}
		}
	}
}

// TestTruncatedFrame cuts valid frames at every byte boundary, a small
// one and the largest a client can send, through each reader size: a
// cut inside a frame must surface as io.ErrUnexpectedEOF or a decode
// error, never a silent success or a clean EOF.
func TestTruncatedFrame(t *testing.T) {
	for _, f := range []Frame{{Op: OpCheck, Name: "jobs", ID: 9, Level: 300}, maxWaitFor()} {
		buf := Append(nil, &f)
		for _, size := range readerSizes {
			rd := bytes.NewReader(nil)
			br := bufio.NewReaderSize(rd, size)
			for cut := 1; cut < len(buf); cut++ {
				rd.Reset(buf[:cut])
				br.Reset(rd)
				_, err := Read(br)
				if err == nil {
					t.Fatalf("%s, %d-byte reader: cut at %d/%d decoded successfully", f.Op, size, cut, len(buf))
				}
				if err == io.EOF {
					t.Fatalf("%s, %d-byte reader: cut at %d/%d reported clean EOF", f.Op, size, cut, len(buf))
				}
			}
		}
	}
}

// TestReadInterned pins the intern hook: it sees every counter name a
// frame carries and nothing else, the name decodes to the string it
// returns, so a repeated name decodes to the very same string, and a
// name that differs only in content never does.
func TestReadInterned(t *testing.T) {
	intern, seen := internTable()
	read := func(f Frame) Frame {
		t.Helper()
		var got Frame
		err := ReadInterned(bufio.NewReader(bytes.NewReader(Append(nil, &f))), intern, &got)
		if err != nil || !reflect.DeepEqual(got, f) {
			t.Fatalf("ReadInterned(%+v) = %+v, %v", f, got, err)
		}
		return got
	}
	a1 := read(Frame{Op: OpIncrement, Name: "jobs", Seq: 1, Amount: 1}).Name
	a2 := read(Frame{Op: OpCheck, Name: "jobs", ID: 2, Level: 1}).Name
	b := read(Frame{Op: OpReset, Name: "jobz", ID: 3}).Name
	if unsafe.StringData(a1) != unsafe.StringData(a2) {
		t.Fatal("a repeated name decoded to a fresh string")
	}
	if unsafe.StringData(a1) == unsafe.StringData(b) {
		t.Fatal("two different names share one string")
	}
	read(Frame{Op: OpStats, Name: "st", ID: 4})
	read(Frame{Op: OpWaitFor, ID: 5, Pred: predicate.KindSum, Watch: []Watch{{Name: "w0", Level: 1}, {Name: "w1", Level: 2}}})
	read(Frame{Op: OpError, ID: 6, Msg: "not a name"})
	read(Frame{Op: OpIncrements, Seq: 7, Incs: []Inc{{Slot: 4, Name: "bound", Amount: 1}, {Slot: 4, Amount: 2}}})
	for _, name := range []string{"jobs", "jobz", "st", "w0", "w1", "bound"} {
		if _, ok := seen[name]; !ok {
			t.Errorf("the hook never saw %q", name)
		}
	}
	if len(seen) != 6 {
		t.Errorf("the hook saw %d strings, want the 6 names only", len(seen))
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	_, err := Read(bufio.NewReader(bytes.NewReader(hdr)))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestUnknownOpcodeRejected(t *testing.T) {
	if _, err := Decode([]byte{0x7f}); err == nil {
		t.Fatal("unknown opcode decoded successfully")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	buf := Append(nil, &Frame{Op: OpCancel, ID: 1})
	payload := append(buf[4:], 0x00)
	if _, err := Decode(payload); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes error", err)
	}
}

func TestOverlongNameRejected(t *testing.T) {
	f := Frame{Op: OpCheck, Name: strings.Repeat("x", MaxName+1), ID: 1, Level: 1}
	buf := Append(nil, &f)
	if _, err := Decode(buf[4:]); err == nil {
		t.Fatal("overlong name decoded successfully")
	}
}

// TestWelcomeDialects pins the negotiation contract at the byte level:
// a Welcome with Features == 0 is byte-identical to the v2 frame (so a
// true v2 decoder, which rejects trailing bytes, accepts it), and a v3
// Welcome's Features survive the round trip while a v2 one's decode to
// zero.
func TestWelcomeDialects(t *testing.T) {
	v2 := Append(nil, &Frame{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 99})
	v3 := Append(nil, &Frame{Op: OpWelcome, Session: 5, Seq: 40, Epoch: 99, Features: FeatureWaitFor})
	if !bytes.Equal(v2[4:], v3[4:len(v3)-1]) {
		t.Fatalf("v3 welcome payload is not the v2 payload plus one feature byte:\nv2 %x\nv3 %x", v2, v3)
	}
	got, err := Decode(v2[4:])
	if err != nil {
		t.Fatalf("v2 welcome: %v", err)
	}
	if got.Features != 0 {
		t.Fatalf("v2 welcome decoded Features = %d, want 0", got.Features)
	}
	got, err = Decode(v3[4:])
	if err != nil {
		t.Fatalf("v3 welcome: %v", err)
	}
	if got.Features != FeatureWaitFor {
		t.Fatalf("v3 welcome decoded Features = %d, want %d", got.Features, FeatureWaitFor)
	}
}

// TestWaitForWatchBounds rejects empty and oversized watch sets at the
// decode boundary, before any server logic sees them.
func TestWaitForWatchBounds(t *testing.T) {
	over := make([]Watch, MaxWatch+1)
	for i := range over {
		over[i] = Watch{Name: "c", Level: 1}
	}
	f := Frame{Op: OpWaitFor, ID: 1, Pred: predicate.KindThreshold, K: 1, Watch: over}
	if _, err := Decode(Append(nil, &f)[4:]); err == nil {
		t.Fatalf("waitfor watching %d counters decoded successfully", len(over))
	}
	f.Watch = nil
	if _, err := Decode(Append(nil, &f)[4:]); err == nil {
		t.Fatal("waitfor watching zero counters decoded successfully")
	}
}

// TestWaitForTruncation cuts a maximal predicate frame at every byte.
func TestWaitForTruncation(t *testing.T) {
	f := Frame{Op: OpWaitFor, ID: 1 << 40, Pred: predicate.KindThreshold, K: 2, Watch: []Watch{
		{Name: "alpha", Level: 300}, {Name: "beta", Level: 1 << 33}, {Name: "gamma", Level: 1},
	}}
	buf := Append(nil, &f)
	for cut := 1; cut < len(buf); cut++ {
		_, err := Read(bufio.NewReader(bytes.NewReader(buf[:cut])))
		if err == nil {
			t.Fatalf("cut at %d/%d decoded successfully", cut, len(buf))
		}
		if err == io.EOF {
			t.Fatalf("cut at %d/%d reported clean EOF", cut, len(buf))
		}
	}
}

// TestStatsReplyGolden pins OpStatsReply's bytes: the engine fields in
// their wire order, PeakLevels first, each a uvarint after the ID, as
// the codec has always written them.
func TestStatsReplyGolden(t *testing.T) {
	f := Frame{Op: OpStatsReply, ID: 300, Stats: core.Stats{
		PeakLevels: 1, SatisfiedLevels: 2, Broadcasts: 3, ChannelCloses: 4,
		Suspends: 5, ImmediateChecks: 6, Increments: 1 << 20, SpinRounds: 8,
		FastPathIncrements: 1<<63 + 9, Flushes: 200,
		RemoteRoundTrips: 11, RemoteWaitNanos: 12, // client-local: never sent
	}}
	want := []byte{
		0x0, 0x0, 0x0, 0x19, 0x87, 0xac, 0x2, 0x1, 0x2, 0x3, 0x4, 0x5, 0x6,
		0x80, 0x80, 0x40, 0x8, 0x89, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
		0x80, 0x1, 0xc8, 0x1,
	}
	if got := Append(nil, &f); !bytes.Equal(got, want) {
		t.Fatalf("statsreply bytes = %#v, want %#v", got, want)
	}
}

// TestWaitForGolden pins OpWaitFor's bytes for a sum and a threshold:
// the ID, the kind, K, Target and the watch count, then each watch's
// name and level, every integer a uvarint, as the codec has always
// written them, and the bytes decode back to the frame.
func TestWaitForGolden(t *testing.T) {
	for _, g := range []struct {
		f    Frame
		want []byte
	}{
		{Frame{Op: OpWaitFor, ID: 300, Pred: predicate.KindSum, Target: 1 << 40, Watch: []Watch{{Name: "a"}, {Name: "bc"}}}, []byte{
			0x0, 0x0, 0x0, 0x13, 0x7, 0xac, 0x2, 0x1, 0x0, 0x80, 0x80, 0x80, 0x80,
			0x80, 0x20, 0x2, 0x1, 0x61, 0x0, 0x2, 0x62, 0x63, 0x0,
		}},
		{Frame{Op: OpWaitFor, ID: 7, Pred: predicate.KindThreshold, K: 2, Watch: []Watch{
			{Name: "q0", Level: 5}, {Name: "q1", Level: 200}, {Name: "q2", Level: 1 << 33},
		}}, []byte{
			0x0, 0x0, 0x0, 0x17, 0x7, 0x7, 0x2, 0x2, 0x0, 0x3, 0x2, 0x71, 0x30, 0x5,
			0x2, 0x71, 0x31, 0xc8, 0x1, 0x2, 0x71, 0x32, 0x80, 0x80, 0x80, 0x80, 0x20,
		}},
	} {
		if got := Append(nil, &g.f); !bytes.Equal(got, g.want) {
			t.Errorf("%s waitfor bytes = %#v, want %#v", g.f.Pred, got, g.want)
		}
		if got, err := Decode(g.want[4:]); err != nil || !reflect.DeepEqual(got, g.f) {
			t.Errorf("%s waitfor bytes decode to %+v, %v; want %+v", g.f.Pred, got, err, g.f)
		}
	}
}

// TestIncrementsGolden pins OpIncrements' bytes: the base seq, then each
// entry to the frame's end, a binding as 0, its slot, its name and its
// amount, a reference as its slot plus one and its amount, every
// integer a uvarint; the bytes decode back to the frame, and building
// the frame entry by entry with AppendInc gives the same bytes.
func TestIncrementsGolden(t *testing.T) {
	f := Frame{Op: OpIncrements, Seq: 300, Incs: []Inc{
		{Slot: 2, Name: "ab", Amount: 1}, {Slot: 2, Amount: 200}, {Slot: MaxSlots - 1, Amount: 3},
	}}
	want := []byte{
		0x0, 0x0, 0x0, 0xf, 0xa, 0xac, 0x2, 0x0, 0x2, 0x2, 0x61, 0x62, 0x1,
		0x3, 0xc8, 0x1, 0x80, 0x8, 0x3,
	}
	if got := Append(nil, &f); !bytes.Equal(got, want) {
		t.Fatalf("increments bytes = %#v, want %#v", got, want)
	}
	if got, err := Decode(want[4:]); err != nil || !reflect.DeepEqual(got, f) {
		t.Fatalf("increments bytes decode to %+v, %v; want %+v", got, err, f)
	}
	built := Append([]byte("queued"), &Frame{Op: OpIncrements, Seq: f.Seq, Incs: f.Incs[:1]})
	for _, e := range f.Incs[1:] {
		built = AppendInc(built, len("queued"), e)
	}
	if !bytes.Equal(built[len("queued"):], want) {
		t.Fatalf("AppendInc built %#v, want %#v", built[len("queued"):], want)
	}
	batch, buf := clientBatch()
	if got := Append(nil, &batch); !bytes.Equal(got, buf) {
		t.Fatal("AppendInc and Append encode the client's batch differently")
	}
	if len(buf) > 4096 {
		t.Fatalf("the client's batch is %d bytes, more than counterd's 4 KiB read buffer", len(buf))
	}
}

// TestIncrementsRejected rejects, at the decode boundary, what no sender
// may put in an OpIncrements frame: a slot of MaxSlots or more, in a
// binding or a reference; no entries; a binding whose name is empty or
// longer than MaxName; and an entry cut short.
func TestIncrementsRejected(t *testing.T) {
	payload := func(f Frame) []byte { return Append(nil, &f)[4:] }
	long := strings.Repeat("x", MaxName+1)
	for what, p := range map[string][]byte{
		"bound slot MaxSlots":      payload(Frame{Op: OpIncrements, Seq: 1, Incs: []Inc{{Slot: MaxSlots, Name: "a", Amount: 1}}}),
		"referenced slot MaxSlots": payload(Frame{Op: OpIncrements, Seq: 1, Incs: []Inc{{Slot: 0, Name: "a", Amount: 1}, {Slot: MaxSlots, Amount: 1}}}),
		"no entries":               payload(Frame{Op: OpIncrements, Seq: 1}),
		"empty binding name":       {byte(OpIncrements), 0x1, 0x0, 0x0, 0x0, 0x1},
		"over-long binding name":   payload(Frame{Op: OpIncrements, Seq: 1, Incs: []Inc{{Slot: 0, Name: long, Amount: 1}}}),
		"reference without amount": {byte(OpIncrements), 0x1, 0x0, 0x0, 0x1, 0x61, 0x1, 0x1},
		"binding cut in its name":  {byte(OpIncrements), 0x1, 0x0, 0x0, 0x3, 0x61, 0x62},
		"binding without amount":   {byte(OpIncrements), 0x1, 0x0, 0x0, 0x1, 0x61},
		"amount cut mid-uvarint":   {byte(OpIncrements), 0x1, 0x1, 0xc8},
	} {
		if f, err := Decode(p); err == nil {
			t.Errorf("%s: decoded as %+v", what, f)
		}
	}
}

// TestStatsReplyCarriesEveryEngineField sets each field of the engine's
// Stats to a distinct value and round-trips it: a field added to the
// schema that the codec does not carry decodes as zero and fails here.
// The client-local Remote* fields must not travel.
func TestStatsReplyCarriesEveryEngineField(t *testing.T) {
	var sent core.Stats
	v := reflect.ValueOf(&sent).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int:
			fv.SetInt(int64(i + 1))
		case reflect.Uint64:
			fv.SetUint(uint64(i+1) << (4 * i))
		default:
			t.Fatalf("Stats.%s has kind %s, which the codec cannot carry", v.Type().Field(i).Name, fv.Kind())
		}
	}
	f := Frame{Op: OpStatsReply, ID: 1, Stats: sent}
	got, err := Decode(Append(nil, &f)[4:])
	if err != nil {
		t.Fatal(err)
	}
	g := reflect.ValueOf(got.Stats)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := v.Field(i).Interface()
		if strings.HasPrefix(name, "Remote") {
			want = reflect.Zero(v.Field(i).Type()).Interface()
		}
		if g.Field(i).Interface() != want {
			t.Errorf("Stats.%s decoded as %v, want %v", name, g.Field(i).Interface(), want)
		}
	}
}
