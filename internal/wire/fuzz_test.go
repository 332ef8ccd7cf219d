package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode feeds the decoder arbitrary payloads, as counterd's reader
// does with bytes from an untrusted peer. No input may panic it. A
// payload Decode accepts must re-encode with Append to bytes that
// decode to an equal frame. ReadInterned, reading the same payload
// behind its length prefix through each reader size, with an intern
// hook and into a frame that holds a reused watch list, as counterd
// reads, must accept exactly what Decode accepts and decode the same
// frame. The seeds are every round-trip sample and a few truncations;
// run it with
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s -parallel 1 ./internal/wire/
func FuzzDecode(f *testing.F) {
	for _, s := range sampleFrames() {
		f.Add(Append(nil, &s)[4:])
	}
	for _, s := range []Frame{{Op: OpCheck, Name: "jobs", ID: 9, Level: 300}, maxWaitFor()} {
		payload := Append(nil, &s)[4:]
		f.Add(payload[:len(payload)/2])
		f.Add(payload[:len(payload)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		want, err := Decode(payload)
		if err == nil {
			again, aerr := Decode(Append(nil, &want)[4:])
			if aerr != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("%s frame %+v re-encodes to bytes that decode to %+v, %v", want.Op, want, again, aerr)
			}
		}
		intern, _ := internTable()
		framed := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
		framed = append(framed, payload...)
		for _, size := range readerSizes {
			got := Frame{Op: OpStats, Name: "stale", Msg: "stale", Watch: make([]Watch, 3, MaxWatch)}
			for i := range got.Watch {
				got.Watch[i] = Watch{Name: strings.Repeat("w", i+1), Level: uint64(i) + 1}
			}
			rerr := ReadInterned(bufio.NewReaderSize(bytes.NewReader(framed), size), intern, &got)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("%d-byte reader: ReadInterned err = %v, Decode err = %v", size, rerr, err)
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte reader: ReadInterned = %+v, Decode = %+v", size, got, want)
			}
		}
	})
}
