// Package server implements the multi-tenant contraction service behind
// cmd/fastcc-serve: a content-addressed operand registry, request admission
// over a bounded ticket pool, and an HTTP/JSON surface (with binary BTNS
// bodies for tensor payloads) that maps the package's typed errors onto
// status codes.
//
// Operands are identified by the SHA-256 of their canonical BTNS encoding
// (tnsbin.Write sorts and deduplicates, so two uploads of the same logical
// tensor — whatever order their triples arrived in — collapse to one entry).
// Entries are shared across tenants: each tenant referencing an operand is
// charged its full estimated bytes against an upload quota, mirroring the
// shard cache's conservative per-tenant charging (DESIGN.md), while the
// process stores one copy.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"

	"fastcc"
)

// Registry errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrUnknownOperand reports a content hash with no registered operand
	// (never uploaded, or released by every tenant).
	ErrUnknownOperand = errors.New("server: unknown operand hash")

	// ErrOverUploadQuota reports that admitting an upload would push the
	// tenant's referenced-operand bytes past its upload quota.
	ErrOverUploadQuota = errors.New("server: tenant over upload quota")
)

// operandEntry is one content-addressed tensor plus the prepared operands
// derived from it, shared by every referencing tenant.
type operandEntry struct {
	hash  string
	t     *fastcc.Tensor
	bytes int64           // estimated resident size, charged per tenant
	refs  map[string]bool // tenants referencing this entry

	mu       sync.Mutex
	prepared map[string]*fastcc.Sharded // by contracted-modes key
}

// modesKey canonicalizes a contracted-modes list into a map key.
func modesKey(modes []int) string { return fmt.Sprint(modes) }

// spillKey derives the content key naming a prepared operand's spill files:
// the tensor's content hash plus a contracted-modes tag, so two mode lists
// over the same tensor (different matrixizations) never share a file name,
// and a restarted daemon deriving the same hash + modes adopts the previous
// process's on-disk shard images.
func spillKey(hash string, modes []int) string {
	var sb strings.Builder
	sb.WriteString(hash)
	sb.WriteString("-m")
	for i, m := range modes {
		if i > 0 {
			sb.WriteByte('_')
		}
		fmt.Fprintf(&sb, "%d", m)
	}
	return sb.String()
}

// sharded returns the entry's prepared operand for the given contracted
// modes, building and caching it on first use. Concurrent requests for the
// same key share one *Sharded (the heavy per-tile build is cached inside it).
func (e *operandEntry) sharded(modes []int) (*fastcc.Sharded, error) {
	key := modesKey(modes)
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.prepared[key]; ok {
		return s, nil
	}
	s, err := fastcc.PreshardKeyed(e.t, modes, spillKey(e.hash, modes))
	if err != nil {
		return nil, err
	}
	e.prepared[key] = s
	return s, nil
}

// drop releases every prepared operand's cached shards.
func (e *operandEntry) drop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.prepared {
		s.Drop()
	}
	e.prepared = map[string]*fastcc.Sharded{}
}

// Registry is the content-addressed operand store. All methods are safe for
// concurrent use.
type Registry struct {
	mu          sync.Mutex
	operands    map[string]*operandEntry
	charged     map[string]int64 // tenant -> bytes of referenced operands
	uploadQuota int64            // per tenant; <= 0 means unlimited
}

// NewRegistry creates an empty registry with the given per-tenant upload
// quota in estimated operand bytes (<= 0 disables the quota).
func NewRegistry(uploadQuota int64) *Registry {
	return &Registry{
		operands:    map[string]*operandEntry{},
		charged:     map[string]int64{},
		uploadQuota: uploadQuota,
	}
}

// estimateBytes is the registry's resident-size estimate for a tensor:
// one uint64 coordinate per mode plus one float64 value per nonzero.
func estimateBytes(t *fastcc.Tensor) int64 {
	return int64(t.NNZ()) * int64(t.Order()+1) * 8
}

// ContentHash returns the hex SHA-256 of t's canonical BTNS encoding — the
// operand identity used by the registry and the HTTP surface.
func ContentHash(t *fastcc.Tensor) (string, error) {
	var buf bytes.Buffer
	if err := fastcc.WriteBTNS(&buf, t); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Register stores t (or dedups against an existing entry with the same
// canonical content) and charges it to tenant's upload quota. Registering
// the same content twice for one tenant is idempotent and charged once.
func (r *Registry) Register(tenant string, t *fastcc.Tensor) (hash string, err error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	hash, err = ContentHash(t)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.operands[hash]
	if !ok {
		e = &operandEntry{
			hash:     hash,
			t:        t,
			bytes:    estimateBytes(t),
			refs:     map[string]bool{},
			prepared: map[string]*fastcc.Sharded{},
		}
	}
	if !e.refs[tenant] {
		if r.uploadQuota > 0 && r.charged[tenant]+e.bytes > r.uploadQuota {
			return "", fmt.Errorf("%w: %q would hold %d bytes, quota %d",
				ErrOverUploadQuota, tenant, r.charged[tenant]+e.bytes, r.uploadQuota)
		}
		e.refs[tenant] = true
		r.charged[tenant] += e.bytes
	}
	r.operands[hash] = e
	return hash, nil
}

// Lookup returns the entry for hash if tenant references it. A hash another
// tenant uploaded but this one never registered is reported as unknown —
// content addresses are not a cross-tenant discovery channel.
func (r *Registry) Lookup(tenant, hash string) (*operandEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.operands[hash]
	if !ok || !e.refs[tenant] {
		return nil, fmt.Errorf("%w: %s", ErrUnknownOperand, hash)
	}
	return e, nil
}

// Release drops tenant's reference on hash, refunds its upload-quota charge,
// and — when the last reference goes — drops the entry's prepared operands
// and forgets the tensor.
func (r *Registry) Release(tenant, hash string) error {
	r.mu.Lock()
	e, ok := r.operands[hash]
	if !ok || !e.refs[tenant] {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownOperand, hash)
	}
	delete(e.refs, tenant)
	r.charged[tenant] -= e.bytes
	if r.charged[tenant] <= 0 {
		delete(r.charged, tenant)
	}
	last := len(e.refs) == 0
	if last {
		delete(r.operands, hash)
	}
	r.mu.Unlock()
	if last {
		e.drop() // outside r.mu: Drop may block on in-flight readers
	}
	return nil
}

// Close drops every entry regardless of references. After Close the
// registry is empty but remains usable.
func (r *Registry) Close() {
	r.mu.Lock()
	entries := make([]*operandEntry, 0, len(r.operands))
	for _, e := range r.operands {
		entries = append(entries, e)
	}
	r.operands = map[string]*operandEntry{}
	r.charged = map[string]int64{}
	r.mu.Unlock()
	for _, e := range entries {
		e.drop()
	}
}

// Charged reports the upload-quota bytes currently charged to tenant.
func (r *Registry) Charged(tenant string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.charged[tenant]
}

// Stats reports the registry's aggregate footprint: how many operands it
// holds and their bytes.
func (r *Registry) Stats() (operands int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.operands {
		bytes += e.bytes
	}
	return len(r.operands), bytes
}
