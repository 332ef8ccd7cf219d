// Package wire defines the binary protocol spoken between the counterd
// server (internal/server) and the remote counter client
// (counter/remote). It is deliberately tiny: every message is one
// length-prefixed frame, and the whole vocabulary is the counter
// interface itself (Increment/Check/Sentinel/Cancel/Reset/Stats), the
// multi-counter predicate waits the v3 dialect adds (WaitFor /
// WaitForCancel — see counter/wait for the predicate model), and the
// session handshake that makes reconnects retry-safe. Besides the
// stdlib it depends only on the engine's Stats schema (internal/core),
// which OpStatsReply carries, and the predicate engine's Kind
// (internal/predicate), which OpWaitFor carries.
//
// # Framing
//
// A frame is a 4-byte big-endian payload length followed by the payload.
// The payload is one opcode byte followed by the opcode's fields, each
// encoded as a uvarint (integers) or a uvarint byte count followed by the
// bytes (strings). Frames are self-contained: a reader that knows the
// length can skip an unknown frame, and a writer can batch any number of
// frames into one TCP segment — both sides do (the server's per
// connection writer and the client's flusher coalesce whatever is queued
// into a single write).
//
// # Idempotency
//
// The protocol leans on the paper's monotonicity argument (section 6):
// because a counter's value only grows, Check frames are naturally
// idempotent — re-sending "wake me at level L" after a reconnect cannot
// observe a smaller value — and the only retry hazard in the whole
// vocabulary is applying an Increment twice. Increments therefore carry a
// per-session sequence number; the server remembers the highest applied
// sequence per session and drops duplicates, so a client that re-sends
// its unacknowledged tail after a reconnect cannot double-apply (see
// docs/PATTERNS.md, "Counters across processes").
//
// # Batched increments
//
// A run of increments is one frame. Where the Welcome advertises
// FeatureBatch, a client sends its increments as OpIncrements: a base
// seq, then entries to the frame's end, entry i carrying seq base+i.
// An entry names its counter by a slot, a small per-connection number
// below MaxSlots, instead of by name: an entry that carries a name
// binds its slot to that name first, and the slot then means that
// counter on the connection until another binding reuses it. So a run
// of increments on counters the connection has bound costs about two
// bytes each — the slot and the amount — and one length prefix, in
// place of a whole frame carrying the name per increment. Each entry
// is deduplicated by its own seq, as an OpIncrement is, and its binding
// takes effect even when the entry is a duplicate, so a re-sent tail
// that an older connection of the session already applied still binds
// its slots on the new one. OpIncrement stays in the vocabulary: v2
// sessions, and clients of servers without the bit, send it.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"monotonic/internal/core"
	"monotonic/internal/predicate"
)

// Version is the protocol version this package speaks natively, carried
// in Hello. Version 2 added the boot Epoch to Welcome (node identity for
// the cluster layer's restart detection). Version 3 added version
// NEGOTIATION in place of version rejection — the server accepts any
// version in [MinVersion, Version] and answers in the client's dialect —
// plus the Features bits in the v3 Welcome and the multi-counter
// predicate wait frames (OpWaitFor / OpWaitForCancel).
const Version = 3

// MinVersion is the oldest client dialect a v3 server still serves: a
// v2 client gets a v2-shaped Welcome (no Features field) and simply
// never sends the v3 opcodes — its predicate waits stay client-side.
const MinVersion = 2

// Feature bits carried in the v3 Welcome. A client uses a capability
// only when the serving instance advertised it, so a mixed-version
// deployment degrades to the v2 behavior instead of desynchronizing.
const (
	// FeatureWaitFor: the server evaluates monotone multi-counter
	// predicates in-process (OpWaitFor / OpWaitForCancel).
	FeatureWaitFor uint64 = 1 << 0
	// FeatureSentinel: the server takes OpSentinel, a wait that counts
	// as no Check in the hosted counter's Stats.
	FeatureSentinel uint64 = 1 << 1
	// FeatureBatch: the server takes OpIncrements, a run of increments
	// in one frame, each naming its counter by a per-connection slot.
	FeatureBatch uint64 = 1 << 2
)

// MaxFrame bounds a frame's payload, protecting both sides from a
// corrupt or hostile length prefix. Frames are small: a maximal
// OpWaitFor — MaxWatch names of MaxName bytes — fits in a third of
// it, and an OpIncrements frame, whose entries run to the frame's end,
// is only as long as its sender makes it (the remote client keeps its
// frames within ReadBuffer, so counterd decodes them in place).
const MaxFrame = 64 << 10

// ReadBuffer is the size of counterd's buffered reader. ReadInterned
// decodes a frame that fits it, length prefix included, in place, and
// copies a longer one out with an allocation.
const ReadBuffer = 4 << 10

// MaxName bounds a counter name.
const MaxName = 256

// MaxWatch bounds the number of counters one OpWaitFor frame may watch.
const MaxWatch = 64

// MaxSlots bounds the slots of one connection: an OpIncrements entry
// names a slot below it. A sender with more counters than slots binds
// a slot again to the counter it needs.
const MaxSlots = 1024

// MaxInc bounds one encoded OpIncrements entry: a binding of the
// highest slot to a MaxName-byte name, with a maximal amount.
const MaxInc = 1 + 2 + 2 + MaxName + binary.MaxVarintLen64

// Op identifies a frame's meaning.
type Op uint8

// Client-to-server opcodes.
const (
	// OpHello resumes the session Session names if this server
	// instance issued it, and opens a fresh one otherwise (Session==0
	// included); the server replies with OpWelcome. Fields: Session,
	// Seq (client protocol version — see Version).
	OpHello Op = 0x01
	// OpIncrement applies Amount to the named counter, deduplicated by
	// the per-session Seq. No per-frame reply; the server acknowledges
	// the highest applied Seq with OpIncAck when its read buffer drains.
	OpIncrement Op = 0x02
	// OpCheck registers a wait: the server replies OpWake{ID} once the
	// named counter's value reaches Level. IDs are chosen by the client
	// and must be unique among its outstanding waits.
	OpCheck Op = 0x03
	// OpCancel deregisters the wait with ID. The server replies
	// OpCancelled{ID} if the wait was still pending; if the wake
	// already happened (or is in flight) it stays silent — the client
	// resolves the race by whichever reply arrives. Satisfied beats
	// cancelled in frame order: the server applies a connection's
	// frames in the order they arrive, so a Cancel that follows an
	// Increment satisfying the wait on the same connection is answered
	// by OpWake alone, never by OpCancelled.
	OpCancel Op = 0x04
	// OpReset zeroes the named counter; reply is OpResetOK{ID} or
	// OpError{ID} (e.g. goroutines are suspended on the counter —
	// the same misuse the in-process Reset panics on).
	OpReset Op = 0x05
	// OpStats requests the named counter's engine stats; reply is
	// OpStatsReply{ID, Stats}.
	OpStats Op = 0x06
	// OpWaitFor (v3) registers a multi-counter predicate wait: the
	// server evaluates the monotone predicate (Pred kind, K/Target,
	// Watch set) against its hosted counters and replies OpWake{ID}
	// once — and only once — it holds. One frame parks one server-side
	// entry regardless of how many goroutines share the client-side
	// condition, and a hosted increment that cannot flip the predicate
	// sends the client nothing.
	OpWaitFor Op = 0x07
	// OpWaitForCancel (v3) deregisters the predicate wait with ID. The
	// server replies OpCancelled{ID} if the wait was still pending; if
	// the wake is already in flight it stays silent — same race rule,
	// and same frame-order rule, as OpCancel.
	OpWaitForCancel Op = 0x08
	// OpSentinel (FeatureSentinel) is OpCheck for a client's Sentinel:
	// same fields, same answers, but the server counts it in neither
	// Suspends nor ImmediateChecks, since arming a sentinel is no Check
	// (in-process as on the wire).
	OpSentinel Op = 0x09
	// OpIncrements (FeatureBatch) carries a run of increments in one
	// frame: Seq is the first entry's seq, and entry i of Incs carries
	// Seq+i. The entries are deduplicated, applied and acknowledged in
	// order, each as an OpIncrement carrying its seq would be; a
	// rejected one is answered with an OpError carrying its seq, and the
	// rest still apply.
	// On the wire, Seq is followed by the entries to the frame's end,
	// at least one; each entry is a uvarint r, then for r = 0 a binding
	// (slot, name, amount) and for r >= 1 a reference (amount for slot
	// r-1). An entry naming a slot the connection has not bound, or a
	// slot of MaxSlots or more, is a protocol error.
	OpIncrements Op = 0x0a
)

// Server-to-client opcodes.
const (
	// OpWelcome answers OpHello. Session is the (new or resumed)
	// session id; Seq is the highest Increment sequence the server has
	// applied for it, so the client re-sends only its unacknowledged
	// tail. Epoch identifies this server *instance*: it is drawn at
	// boot and never changes while the process lives, so a client that
	// reconnects and sees a different epoch knows the node restarted —
	// its hosted values and sessions are gone — and can re-resume
	// beyond the unacked tail (the cluster layer replays its full
	// per-name contribution ledger; see counter/cluster).
	OpWelcome Op = 0x81
	// OpWake resolves the wait with ID: the level is satisfied. Level
	// echoes the satisfied level so the client can advance its local
	// known-satisfied watermark.
	OpWake Op = 0x82
	// OpCancelled resolves the wait with ID as cancelled.
	OpCancelled Op = 0x83
	// OpIncAck acknowledges every Increment with sequence <= Seq.
	OpIncAck Op = 0x84
	// OpResetOK acknowledges a reset.
	OpResetOK Op = 0x85
	// OpError is the failure reply to the request with ID. A rejected
	// OpIncrement (overflow) has no ID, so its OpError carries the
	// increment's Seq in ID instead: a client must keep its increment
	// seqs and its request ids disjoint, or a rejection can answer an
	// unrelated request.
	OpError Op = 0x86
	// OpStatsReply carries a Stats snapshot.
	OpStatsReply Op = 0x87
)

// String returns the opcode's wire name.
func (o Op) String() string {
	switch o {
	case OpHello:
		return "hello"
	case OpIncrement:
		return "increment"
	case OpCheck:
		return "check"
	case OpCancel:
		return "cancel"
	case OpReset:
		return "reset"
	case OpStats:
		return "stats"
	case OpWaitFor:
		return "waitfor"
	case OpWaitForCancel:
		return "waitforcancel"
	case OpSentinel:
		return "sentinel"
	case OpIncrements:
		return "increments"
	case OpWelcome:
		return "welcome"
	case OpWake:
		return "wake"
	case OpCancelled:
		return "cancelled"
	case OpIncAck:
		return "incack"
	case OpResetOK:
		return "resetok"
	case OpError:
		return "error"
	case OpStatsReply:
		return "statsreply"
	}
	return fmt.Sprintf("op(0x%02x)", uint8(o))
}

// Watch is one watched coordinate of an OpWaitFor predicate: a hosted
// counter name plus its per-counter level (the threshold for
// predicate.KindThreshold; zero and unused for predicate.KindSum).
type Watch struct {
	Name  string
	Level uint64
}

// Inc is one entry of an OpIncrements frame: Amount for the counter the
// connection has bound to Slot. A non-empty Name binds Slot to that
// counter first, for this entry and every later one naming Slot.
type Inc struct {
	Slot   uint64
	Name   string
	Amount uint64
}

// Frame is one decoded protocol message. Only the fields meaningful for
// Op are set; see the opcode docs for which those are. Using one struct
// for the whole vocabulary keeps the reader loops a single switch.
type Frame struct {
	Op       Op
	Name     string         // counter name (Increment, Check, Sentinel, Reset, Stats)
	Session  uint64         // Hello, Welcome
	Epoch    uint64         // Welcome: the server instance's boot epoch (node identity)
	Seq      uint64         // Increment/IncAck sequence; Increments first entry's; Hello version; Welcome last applied seq
	ID       uint64         // wait id (Check/Sentinel/Cancel/WaitFor*/Wake/Cancelled) or request id (Reset/Stats and replies)
	Level    uint64         // Check/Sentinel level; Wake satisfied level (zero for predicate wakes)
	Amount   uint64         // Increment amount
	Incs     []Inc          // Increments: the entries, in seq order
	Msg      string         // Error message (Append clips it to MaxName bytes)
	Stats    core.Stats     // StatsReply: the engine fields; the Remote* fields never travel
	Features uint64         // Welcome (v3 only): the server's feature bits
	Pred     predicate.Kind // WaitFor: predicate kind, a uvarint on the wire
	K        uint64         // WaitFor: quorum count (KindThreshold)
	Target   uint64         // WaitFor: sum target (KindSum)
	Watch    []Watch        // WaitFor: the watched counters, in coordinate order
}

// ErrFrameTooLarge is returned for length prefixes beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Append encodes f as one complete frame (length prefix included) onto
// buf and returns the extended slice.
func Append(buf []byte, f *Frame) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length backfilled below
	buf = append(buf, byte(f.Op))
	switch f.Op {
	case OpHello:
		buf = appendUint(buf, f.Session)
		buf = appendUint(buf, f.Seq)
	case OpIncrement:
		buf = appendString(buf, f.Name)
		buf = appendUint(buf, f.Seq)
		buf = appendUint(buf, f.Amount)
	case OpIncrements:
		buf = appendUint(buf, f.Seq)
		for _, e := range f.Incs {
			buf = appendInc(buf, e)
		}
	case OpCheck, OpSentinel:
		buf = appendString(buf, f.Name)
		buf = appendUint(buf, f.ID)
		buf = appendUint(buf, f.Level)
	case OpCancel:
		buf = appendUint(buf, f.ID)
	case OpReset, OpStats:
		buf = appendString(buf, f.Name)
		buf = appendUint(buf, f.ID)
	case OpWelcome:
		buf = appendUint(buf, f.Session)
		buf = appendUint(buf, f.Seq)
		buf = appendUint(buf, f.Epoch)
		// The Features field exists only in the v3 dialect. The server
		// answers a v2 Hello with Features == 0, which elides the field
		// and yields exactly the v2 frame a v2 decoder expects (it would
		// reject trailing bytes); a v3 server always advertises at least
		// one bit, so v3 clients always see the field.
		if f.Features != 0 {
			buf = appendUint(buf, f.Features)
		}
	case OpWaitFor:
		buf = appendUint(buf, f.ID)
		buf = appendUint(buf, uint64(f.Pred))
		buf = appendUint(buf, f.K)
		buf = appendUint(buf, f.Target)
		buf = appendUint(buf, uint64(len(f.Watch)))
		for _, w := range f.Watch {
			buf = appendString(buf, w.Name)
			buf = appendUint(buf, w.Level)
		}
	case OpWaitForCancel:
		buf = appendUint(buf, f.ID)
	case OpWake:
		buf = appendUint(buf, f.ID)
		buf = appendUint(buf, f.Level)
	case OpCancelled, OpResetOK:
		buf = appendUint(buf, f.ID)
	case OpIncAck:
		buf = appendUint(buf, f.Seq)
	case OpError:
		buf = appendUint(buf, f.ID)
		buf = appendString(buf, clipMsg(f.Msg))
	case OpStatsReply:
		buf = appendUint(buf, f.ID)
		buf = appendUint(buf, uint64(f.Stats.PeakLevels))
		for _, p := range statsFields(&f.Stats) {
			buf = appendUint(buf, *p)
		}
	default:
		panic("wire: Append on unknown op " + f.Op.String())
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// AppendInc appends e as the next entry of the OpIncrements frame that
// starts at buf[frame] and runs to the end of buf, rewriting the frame's
// length prefix, and returns the extended slice. The entry carries the
// seq after the frame's last entry, so a sender extends only the last
// frame it queued, and only with the seq that follows.
func AppendInc(buf []byte, frame int, e Inc) []byte {
	buf = appendInc(buf, e)
	binary.BigEndian.PutUint32(buf[frame:], uint32(len(buf)-frame-4))
	return buf
}

// appendInc encodes one OpIncrements entry: a binding (0, slot, name,
// amount) when e carries a name, else a reference (slot+1, amount).
func appendInc(buf []byte, e Inc) []byte {
	if e.Name != "" {
		buf = appendUint(buf, 0)
		buf = appendUint(buf, e.Slot)
		buf = appendString(buf, e.Name)
	} else {
		buf = appendUint(buf, e.Slot+1)
	}
	return appendUint(buf, e.Amount)
}

// Read reads and decodes one frame from br. It returns io.EOF only on a
// clean boundary (no partial frame read); a frame cut short surfaces as
// io.ErrUnexpectedEOF. A frame that fits br's buffer is decoded in place
// from it (Peek, then Discard), so only a larger one is copied out
// first; either way every decoded field is a copy, never a view of br.
// It is ReadInterned into a fresh Frame, returned by value; the zero
// Frame on error.
func Read(br *bufio.Reader) (Frame, error) {
	var f Frame
	if err := ReadInterned(br, nil, &f); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// ReadInterned is Read into a caller-owned frame: it zeroes f once and
// decodes the frame's fields straight into it, so a reader loop that
// keeps one Frame copies none per frame. A non-nil intern turns every
// counter name into a string instead of copying it, so a reader that
// keeps the strings of names it has seen decodes a frame on one of them
// without allocating; intern receives a view of the frame that is valid
// only during the call and must not be kept, and must return a string
// equal to it. Every other field is a copy, so f may be kept or reused.
// An OpWaitFor's watches are decoded into the storage f.Watch holds on
// entry when it has room, and into a fresh list otherwise, so a reader
// that hands its frame the list of the last OpWaitFor decodes the next
// without allocating; every other op leaves Watch nil. An
// OpIncrements's entries are decoded into the storage of f.Incs the
// same way, and every other op leaves Incs nil. A caller that keeps a
// decoded list must not hand its storage back. On error f holds no
// usable frame.
func ReadInterned(br *bufio.Reader, intern func([]byte) string, f *Frame) error {
	hdr, err := br.Peek(4)
	if err != nil {
		if len(hdr) == 0 {
			return err // clean EOF stays io.EOF
		}
		return unexpected(err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	size := 4 + int(n)
	if size > br.Size() {
		// Peek cannot hold the whole frame: copy the payload out.
		br.Discard(4)
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return unexpected(err)
		}
		return decode(payload, intern, f)
	}
	buf, err := br.Peek(size)
	if err != nil {
		return unexpected(err)
	}
	err = decode(buf[4:], intern, f)
	br.Discard(size)
	return err
}

// Decode parses one frame payload (opcode byte onward, no length
// prefix).
func Decode(payload []byte) (Frame, error) {
	var f Frame
	if err := decode(payload, nil, &f); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// decode parses payload into f, which it zeroes first, keeping only
// the storage of f's Watch list for an OpWaitFor's watches and of its
// Incs for an OpIncrements's entries.
func decode(payload []byte, intern func([]byte) string, f *Frame) error {
	d := decoder{buf: payload, intern: intern}
	watch, incs := f.Watch, f.Incs
	*f = Frame{Op: Op(d.byte())}
	switch f.Op {
	case OpHello:
		f.Session, f.Seq = d.uint(), d.uint()
	case OpIncrement:
		f.Name, f.Seq, f.Amount = d.name(), d.uint(), d.uint()
	case OpIncrements:
		f.Seq = d.uint()
		incs = incs[:0]
		for d.err == nil && len(d.buf) != 0 {
			incs = append(incs, d.inc())
		}
		if d.err == nil && len(incs) == 0 {
			return errors.New("wire: increments frame has no entries")
		}
		f.Incs = incs
	case OpCheck, OpSentinel:
		f.Name, f.ID, f.Level = d.name(), d.uint(), d.uint()
	case OpCancel:
		f.ID = d.uint()
	case OpReset, OpStats:
		f.Name, f.ID = d.name(), d.uint()
	case OpWelcome:
		f.Session, f.Seq, f.Epoch = d.uint(), d.uint(), d.uint()
		// Features is optional: a v2 server's Welcome ends at Epoch, a
		// v3 server's carries the bits. One decoder serves both dialects.
		if len(d.buf) != 0 {
			f.Features = d.uint()
		}
	case OpWaitFor:
		f.ID, f.Pred, f.K, f.Target = d.uint(), predicate.Kind(d.uint()), d.uint(), d.uint()
		n := d.uint()
		if d.err == nil && (n == 0 || n > MaxWatch) {
			return fmt.Errorf("wire: waitfor frame watches %d counters (want 1..%d)", n, MaxWatch)
		}
		if d.err == nil {
			if uint64(cap(watch)) < n {
				watch = make([]Watch, n)
			}
			f.Watch = watch[:n]
			for i := range f.Watch {
				f.Watch[i].Name, f.Watch[i].Level = d.name(), d.uint()
			}
		}
	case OpWaitForCancel:
		f.ID = d.uint()
	case OpWake:
		f.ID, f.Level = d.uint(), d.uint()
	case OpCancelled, OpResetOK:
		f.ID = d.uint()
	case OpIncAck:
		f.Seq = d.uint()
	case OpError:
		f.ID, f.Msg = d.uint(), d.string()
	case OpStatsReply:
		f.ID, f.Stats.PeakLevels = d.uint(), int(d.uint())
		for _, p := range statsFields(&f.Stats) {
			*p = d.uint()
		}
	default:
		return fmt.Errorf("wire: unknown opcode 0x%02x", byte(f.Op))
	}
	if d.err != nil {
		return fmt.Errorf("wire: bad %s frame: %w", f.Op, d.err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %s frame has %d trailing bytes", f.Op, len(d.buf))
	}
	return nil
}

// statsFields lists OpStatsReply's engine fields after PeakLevels, an
// int sent ahead of them, in wire order, for encode and decode alike.
func statsFields(s *core.Stats) [9]*uint64 {
	return [9]*uint64{
		&s.SatisfiedLevels, &s.Broadcasts, &s.ChannelCloses, &s.Suspends,
		&s.ImmediateChecks, &s.Increments, &s.SpinRounds, &s.FastPathIncrements, &s.Flushes,
	}
}

// clipMsg cuts an error message to MaxName bytes, the longest string any
// decoder accepts, backing off to a UTF-8 boundary. Senders put the
// reason first, so a clipped message still says what went wrong.
func clipMsg(msg string) string {
	if len(msg) <= MaxName {
		return msg
	}
	n := MaxName
	for n > 0 && !utf8.RuneStart(msg[n]) {
		n--
	}
	return msg[:n]
}

func appendUint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder consumes payload fields, latching the first error so the
// per-opcode switches read straight through.
type decoder struct {
	buf    []byte
	err    error
	intern func([]byte) string // nil: names are copied like any string
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) == 0 {
		d.fail("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// name decodes a counter name, through the decoder's intern hook if it
// has one.
func (d *decoder) name() string {
	b := d.bytes()
	if d.intern == nil || d.err != nil {
		return string(b)
	}
	return d.intern(b)
}

func (d *decoder) string() string { return string(d.bytes()) }

// inc decodes one OpIncrements entry: a binding carries a name of
// 1..MaxName bytes, and either kind a slot below MaxSlots.
func (d *decoder) inc() Inc {
	var e Inc
	if r := d.uint(); r != 0 {
		e.Slot = r - 1
	} else if e.Slot, e.Name = d.uint(), d.name(); e.Name == "" {
		d.fail("empty binding name")
	}
	e.Amount = d.uint()
	if e.Slot >= MaxSlots {
		d.fail("slot out of range")
	}
	return e
}

// bytes consumes one length-prefixed string field, at most MaxName
// bytes, as a view of the payload.
func (d *decoder) bytes() []byte {
	n := d.uint()
	if d.err != nil {
		return nil
	}
	if n > MaxName || n > uint64(len(d.buf)) {
		d.fail("bad string length")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
		d.buf = nil
	}
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
