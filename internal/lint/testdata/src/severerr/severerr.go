// Test fixture for the severerr analyzer, type-checked under the fake
// import path netenergy/internal/ingest (in scope). decodeRec, readHeader,
// checkCRC and restoreAcc match the guarded decode/read/CRC/restore name
// families.
package ingest

import (
	"errors"
	"io"
	"log"
)

var errCRC = errors.New("crc mismatch")

func decodeRec(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, io.EOF
	}
	return int(b[0]), nil
}

func readHeader(b []byte) error {
	if len(b) < 4 {
		return io.ErrUnexpectedEOF
	}
	return nil
}

func checkCRC(b []byte) error {
	if len(b) == 0 {
		return errCRC
	}
	return nil
}

// restoreAcc stands for analysis.RestoreStreamAccumulator: it decodes
// checkpointed state, so its error is a decode error.
func restoreAcc(b []byte) (int, error) { return decodeRec(b) }

func use(v int) {}

// Discarded errors.
func Discarded(b []byte) {
	checkCRC(b)         // want "error from checkCRC discarded"
	readHeader(b)       // want "error from readHeader discarded"
	_, _ = decodeRec(b) // want "error from decodeRec assigned to _"
}

// Unchecked errors.
func Unchecked(b []byte) {
	v, err := decodeRec(b) // want "error from decodeRec never checked"
	use(v)
	_ = err
}

// Overwritten before any check.
func Overwritten(b []byte) {
	v, err := decodeRec(b) // want "error from decodeRec overwritten before being checked"
	err = readHeader(b)
	if err != nil {
		return
	}
	use(v)
}

// LoggedAndContinued: the failure branch logs and falls through.
func LoggedAndContinued(b []byte) {
	v, err := decodeRec(b)
	if err != nil { // want "error from decodeRec logged-and-continued"
		log.Printf("decode failed: %v", err)
	}
	use(v)
}

// EqNilWithoutElse: only the success path is handled.
func EqNilWithoutElse(b []byte) {
	v, err := decodeRec(b)
	if err == nil { // want "error from decodeRec checked with == nil but the failure case is missing"
		use(v)
	}
}

// RestoreDropped keeps a device whose checkpointed state did not decode.
func RestoreDropped(b []byte) {
	v, _ := restoreAcc(b) // want "error from restoreAcc assigned to _"
	use(v)
}

// RestoreSevered abandons the device, as Server.restore does.
func RestoreSevered(bs [][]byte) {
	for _, b := range bs {
		v, err := restoreAcc(b)
		if err != nil {
			continue
		}
		use(v)
	}
}

// Propagated: returning the error is sever-by-propagation.
func Propagated(b []byte) (int, error) {
	v, err := decodeRec(b)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// PropagatedDirect: a guarded call in return position flows to the caller.
func PropagatedDirect(b []byte) (int, error) {
	return decodeRec(b)
}

// InitForm: the canonical `if err := f(); err != nil { return }` shape.
func InitForm(b []byte) error {
	if err := readHeader(b); err != nil {
		return err
	}
	if err := checkCRC(b); err != nil { // want "error from checkCRC logged-and-continued"
		log.Printf("crc: %v", err)
	}
	return nil
}

// SwitchSevered mirrors the frame-reader loop: every failure clause leaves
// the loop.
func SwitchSevered(b []byte) {
	for {
		v, err := decodeRec(b)
		switch {
		case err == nil:
		case errors.Is(err, io.EOF):
			return
		default:
			panic(err)
		}
		use(v)
	}
}

// SwitchLeaky has a failure clause that logs and falls through.
func SwitchLeaky(b []byte) {
	v, err := decodeRec(b)
	switch {
	case err == nil:
	default: // want "error from decodeRec logged-and-continued in switch clause"
		log.Printf("decode: %v", err)
	}
	use(v)
}

// Allowed shows the escape hatch.
func Allowed(b []byte) {
	checkCRC(b) //repolint:allow severerr fixture: probing call, result intentionally unused
}

// UnguardedNames are not decode/CRC/seq functions; their errors are the
// errcheck analyzer's business, not this one's.
func openThing() error { return nil }

func Unguarded() {
	openThing()
}
