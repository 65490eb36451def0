package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"weihl83/internal/histories"
	"weihl83/internal/spec"
)

// Frame layout of the file-backed WAL: each record is one length-prefixed,
// checksummed frame
//
//	[4B payload length, little-endian][4B CRC32C of payload][payload]
//
// so torn-write detection is real rather than injected — a crash mid-write
// leaves a frame whose length or checksum cannot validate, and recovery
// trims the log at the first such frame of the final segment.

// frameHeaderSize is the fixed per-frame overhead.
const frameHeaderSize = 8

// maxFramePayload bounds a single record's serialized size. A length
// prefix beyond it can only come from corruption (or a torn length field),
// never from a frame this implementation wrote.
const maxFramePayload = 64 << 20

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a WAL segment whose damage cannot be explained by a
// torn tail: a bad frame in the middle of a segment, a bad frame in a
// non-final segment, or a checksum-valid payload that does not decode.
// Unlike a torn tail — which recovery trims, because the write-ahead
// protocol guarantees nothing after the tear was ever acknowledged — a
// corrupt segment means acknowledged history may be damaged, so recovery
// refuses to guess.
var ErrCorrupt = errors.New("recovery: corrupt WAL segment")

// appendRecordFrame encodes r as one frame at the end of buf: the header's
// space is reserved, the payload encoded behind it and the header filled in
// place, so the payload is never copied. On error buf is returned as it
// was.
func appendRecordFrame(buf []byte, r Record, specs map[histories.ObjectID]spec.SerialSpec) ([]byte, error) {
	start := len(buf)
	buf, err := appendRecord(append(buf, make([]byte, frameHeaderSize)...), r, specs)
	if err != nil {
		return buf[:start], err
	}
	payload := buf[start+frameHeaderSize:]
	if len(payload) > maxFramePayload {
		return buf[:start], fmt.Errorf("recovery: %d-byte record exceeds the frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// scanFrames walks data frame by frame. It returns the decoded payloads
// (aliasing data), the byte length of the validated prefix, and whether
// the data ends in a torn tail — trailing bytes that do not form a
// complete checksum-valid frame. A torn tail is normal in the final
// segment of a crashed log; callers treat it as ErrCorrupt anywhere else.
func scanFrames(data []byte) (payloads [][]byte, valid int, torn bool) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return payloads, off, false
		}
		if len(rest) < frameHeaderSize {
			return payloads, off, true
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxFramePayload || int(n) > len(rest)-frameHeaderSize {
			// Length field torn or corrupt, or payload cut short.
			return payloads, off, true
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return payloads, off, true
		}
		payloads = append(payloads, payload)
		off += frameHeaderSize + int(n)
	}
}
