package fastcc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fastcc/internal/ref"
)

// Eager-validation tests for WithTenant and the tenant management calls,
// mirroring the typed-error conventions of errors.go: every malformed ID is
// an ErrBadOption before any work runs.

func TestWithTenantEagerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randomTensor(rng, []uint64{6, 5}, 12)
	r := randomTensor(rng, []uint64{5, 4}, 12)
	spec := Spec{CtrLeft: []int{1}, CtrRight: []int{0}}

	bad := []struct {
		name string
		id   string
	}{
		{"empty", ""},
		{"space", "team one"},
		{"control", "team\x01"},
		{"newline", "team\n1"},
		{"non-ascii", "tëam"},
		{"too-long", strings.Repeat("x", 129)},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Contract(l, r, spec, WithTenant(tc.id))
			if !errors.Is(err, ErrBadOption) {
				t.Fatalf("Contract(WithTenant(%q)) err = %v, want ErrBadOption", tc.id, err)
			}
			if err := SetTenantQuota(tc.id, 1<<20); !errors.Is(err, ErrBadOption) {
				t.Fatalf("SetTenantQuota(%q) err = %v, want ErrBadOption", tc.id, err)
			}
			if err := DropTenant(tc.id); !errors.Is(err, ErrBadOption) {
				t.Fatalf("DropTenant(%q) err = %v, want ErrBadOption", tc.id, err)
			}
		})
	}

	// A maximal valid ID passes eagerly and the run succeeds.
	id := strings.Repeat("x", 128)
	defer func() {
		if err := DropTenant(id); err != nil {
			t.Errorf("DropTenant(valid): %v", err)
		}
	}()
	if _, _, err := Contract(l, r, spec, WithTenant(id)); err != nil {
		t.Fatalf("Contract with maximal valid tenant ID: %v", err)
	}
}

func TestTenantQuotaThroughPublicAPI(t *testing.T) {
	const tenant = "public-api-tenant"
	defer func() {
		if err := DropTenant(tenant); err != nil {
			t.Errorf("DropTenant: %v", err)
		}
	}()

	rng := rand.New(rand.NewSource(23))
	l := randomTensor(rng, []uint64{40, 30, 20}, 800)
	r := randomTensor(rng, []uint64{20, 25, 40}, 800)
	spec := Spec{CtrLeft: []int{2, 0}, CtrRight: []int{0, 2}}
	want, err := ref.Contract(l, r, spec)
	if err != nil {
		t.Fatal(err)
	}

	if err := SetTenantQuota(tenant, 1); err != nil {
		t.Fatalf("SetTenantQuota: %v", err)
	}
	lsh, err := Preshard(l, spec.CtrLeft)
	if err != nil {
		t.Fatal(err)
	}
	defer lsh.Drop()
	rsh, err := Preshard(r, spec.CtrRight)
	if err != nil {
		t.Fatal(err)
	}
	defer rsh.Drop()

	// Repeated tenanted contractions under a 1-byte quota: every run's exit
	// enforcement must settle the account, and results must stay correct
	// even though the tenant's shards are evicted between runs.
	for i := 0; i < 3; i++ {
		out, _, err := ContractPrepared(lsh, rsh, WithTenant(tenant))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !Equal(out, want) {
			t.Fatalf("run %d: result differs from reference under quota churn", i)
		}
		snap, ok := TenantCacheStats(tenant)
		if !ok {
			t.Fatalf("run %d: tenant account missing", i)
		}
		if snap.Bytes > 1 {
			t.Fatalf("run %d: resident charge %d exceeds the 1-byte quota after run exit", i, snap.Bytes)
		}
	}
	snap, _ := TenantCacheStats(tenant)
	if snap.Evictions == 0 {
		t.Fatal("no quota evictions recorded across over-quota runs")
	}
	if snap.Misses == 0 {
		t.Fatal("no builds charged to the tenant")
	}

	// AllTenantCacheStats includes the tenant, sorted by ID.
	all := AllTenantCacheStats()
	found := false
	for i, s := range all {
		if i > 0 && all[i-1].ID >= s.ID {
			t.Fatalf("AllTenantCacheStats not strictly sorted: %q before %q", all[i-1].ID, s.ID)
		}
		found = found || s.ID == tenant
	}
	if !found {
		t.Fatal("AllTenantCacheStats omits an active tenant")
	}
}
