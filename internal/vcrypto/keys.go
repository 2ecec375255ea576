// Package vcrypto implements the cryptographic substrate of MedVault: a
// two-level key hierarchy (master key-encryption-key wrapping per-record data
// keys), AES-256-GCM envelope encryption, Ed25519 signing, and HMAC-based
// token derivation.
//
// The key hierarchy is what makes secure deletion (crypto-shredding)
// possible: every record is encrypted under its own data-encryption key
// (DEK), each DEK is stored only in wrapped (encrypted) form under the master
// key, and destroying the wrapped DEK renders every ciphertext version of the
// record permanently unreadable — including copies on re-used or discarded
// media, which is exactly the HIPAA §164.310(d)(2) disposal and media re-use
// requirement the paper discusses.
package vcrypto

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
)

// KeySize is the byte length of all symmetric keys (AES-256, HMAC-SHA-256).
const KeySize = 32

// Errors returned by the package.
var (
	// ErrShredded indicates the data key for a record has been destroyed;
	// its ciphertext is permanently unreadable.
	ErrShredded = errors.New("vcrypto: key shredded")
	// ErrNoKey indicates no data key exists for the requested record.
	ErrNoKey = errors.New("vcrypto: no such key")
	// ErrKeyExists indicates a data key is already registered for the record.
	ErrKeyExists = errors.New("vcrypto: key already exists")
	// ErrBadKey indicates key material of the wrong size or content.
	ErrBadKey = errors.New("vcrypto: malformed key material")
	// ErrDecrypt indicates authenticated decryption failed: wrong key, or the
	// ciphertext or its associated data was tampered with.
	ErrDecrypt = errors.New("vcrypto: decryption failed (tampered or wrong key)")
)

// Key is a fixed-size symmetric key.
type Key [KeySize]byte

// NewKey returns a fresh random key from crypto/rand.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("vcrypto: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key. b must be exactly KeySize bytes.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return k, fmt.Errorf("%w: got %d bytes, want %d", ErrBadKey, len(b), KeySize)
	}
	copy(k[:], b)
	return k, nil
}

// Zero overwrites the key material in place. After Zero the key must not be
// used again. This is best-effort hygiene; Go's GC may have copied the value.
func (k *Key) Zero() {
	for i := range k {
		k[i] = 0
	}
}

// Fingerprint returns a short hex identifier of the key, safe to log:
// it is the first 8 bytes of SHA-256(key) and reveals nothing useful about
// the key material.
func (k Key) Fingerprint() string {
	sum := sha256.Sum256(k[:])
	return hex.EncodeToString(sum[:8])
}

// DeriveKey deterministically derives a purpose-bound subkey from a parent
// key using HMAC-SHA-256 (a one-step HKDF-Expand). Distinct labels yield
// independent keys, so one master secret can safely serve the envelope layer,
// the index tokenizer, and the audit MAC without key reuse across domains.
func DeriveKey(parent Key, label string) Key {
	mac := hmac.New(sha256.New, parent[:])
	mac.Write([]byte("medvault/derive/v1\x00"))
	mac.Write([]byte(label))
	var out Key
	copy(out[:], mac.Sum(nil))
	return out
}

// MAC computes HMAC-SHA-256 over data with the given key. It is used for
// searchable-index token derivation and audit-chain entry MACs.
func MAC(key Key, data []byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write(data)
	return mac.Sum(nil)
}

// MACer computes and checks MACs under one key, keeping the keyed HMAC
// state between messages: MAC pays hmac.New (two digests and the key pads)
// on every call, a MACer pays it once. The audit chain MACs every event, so
// it appends and verifies through MACers. Not safe for concurrent use.
type MACer struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewMACer returns a MACer keyed with key.
func NewMACer(key Key) *MACer {
	return &MACer{h: hmac.New(sha256.New, key[:])}
}

// MAC computes HMAC-SHA-256 over data, as MAC(key, data) does, into a new
// slice.
func (m *MACer) MAC(data []byte) []byte {
	m.h.Reset()
	m.h.Write(data)
	return m.h.Sum(nil)
}

// Verify reports whether sum is a valid MAC over data, in constant time.
func (m *MACer) Verify(data, sum []byte) bool {
	m.h.Reset()
	m.h.Write(data)
	return hmac.Equal(m.h.Sum(m.sum[:0]), sum)
}

// Hash is the content hash used throughout MedVault (SHA-256).
func Hash(data []byte) [32]byte { return sha256.Sum256(data) }

// HashHex returns the hex encoding of Hash(data).
func HashHex(data []byte) string {
	h := Hash(data)
	return hex.EncodeToString(h[:])
}
