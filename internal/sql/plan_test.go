package sql

import (
	"testing"

	"mrdb/internal/cluster"
	"mrdb/internal/core"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
)

// planHarness builds a catalog + session without running any workload;
// planning is pure.
type planHarness struct {
	c       *cluster.Cluster
	catalog *Catalog
	session *Session
	db      *core.Database
}

func newPlanHarness(t *testing.T) *planHarness {
	t.Helper()
	c := cluster.New(cluster.Config{
		Seed: 1, Regions: cluster.ThreeRegions(), MaxOffset: 250 * sim.Millisecond,
	})
	catalog := NewCatalog()
	db := core.NewDatabase("d", simnet.USEast1, simnet.EuropeW2, simnet.AsiaNE1)
	if err := catalog.CreateDatabase(db); err != nil {
		t.Fatal(err)
	}
	s := NewSession(c, catalog, c.GatewayFor(simnet.EuropeW2))
	s.Database = "d"
	return &planHarness{c: c, catalog: catalog, session: s, db: db}
}

// mkTable registers a REGIONAL BY ROW table with PK (id), unique email,
// and a computed-region variant flag, without creating ranges.
func (h *planHarness) mkTable(t *testing.T, name string, computed bool) *Table {
	t.Helper()
	tbl := &Table{Name: name, DB: "d", Locality: core.RegionalByRow}
	id := tbl.AddColumn(&Column{Name: "id", Type: TInt, NotNull: true})
	email := tbl.AddColumn(&Column{Name: "email", Type: TString})
	tbl.AddColumn(&Column{Name: "city", Type: TString})
	var regionCol *Column
	if computed {
		regionCol = tbl.AddColumn(&Column{
			Name: RegionColumnName, Type: TRegion, NotNull: true, Hidden: true,
			Computed: &FuncCall{Name: "region_from_city", Args: []Expr{&ColRef{Name: "city"}}},
		})
	} else {
		regionCol = tbl.AddColumn(&Column{
			Name: RegionColumnName, Type: TRegion, NotNull: true, Hidden: true,
			Default: &FuncCall{Name: "gateway_region"},
		})
	}
	tbl.RegionColumn = regionCol.ID
	tbl.AddIndex(&Index{Name: "primary", Unique: true, Cols: []ColumnID{id.ID}})
	tbl.AddIndex(&Index{Name: "email_key", Unique: true, Cols: []ColumnID{email.ID}})
	if err := h.catalog.CreateTable(tbl); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func eq(col string, v Datum) *Where {
	return &Where{Conds: []Cond{{Col: col, Op: OpEq, Vals: []Expr{&Lit{Val: v}}}}}
}

func TestPlanPointLookupOnPK(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	plan, err := h.session.planReadStmt(nil, tbl, h.db, eq("id", int64(7)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.index.Name != "primary" {
		t.Fatalf("chose index %q", plan.index.Name)
	}
	if len(plan.lookups) != 1 || len(plan.lookups[0]) != 1 {
		t.Fatalf("lookups = %v", plan.lookups)
	}
	if plan.regionPinned {
		t.Fatal("region should not be pinned without a region predicate")
	}
	if !plan.los {
		t.Fatal("unique point lookup should use locality optimized search")
	}
	// Gateway's region probes first.
	if plan.regions[0] != simnet.EuropeW2 {
		t.Fatalf("first probe region = %v, want the gateway's", plan.regions[0])
	}
	if len(plan.regions) != 3 {
		t.Fatalf("regions = %v", plan.regions)
	}
}

func TestPlanUniqueSecondaryIndex(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	plan, err := h.session.planReadStmt(nil, tbl, h.db, eq("email", "a@b.c"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.index.Name != "email_key" {
		t.Fatalf("chose index %q", plan.index.Name)
	}
	if !plan.los {
		t.Fatal("unique secondary lookup should use LOS")
	}
}

func TestPlanRegionPinnedByPredicate(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	w := eq("id", int64(1))
	w.Conds = append(w.Conds, Cond{
		Col: RegionColumnName, Op: OpEq,
		Vals: []Expr{&Lit{Val: "asia-northeast1"}},
	})
	plan, err := h.session.planReadStmt(nil, tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.regionPinned || len(plan.regions) != 1 || plan.regions[0] != simnet.AsiaNE1 {
		t.Fatalf("pinned=%v regions=%v", plan.regionPinned, plan.regions)
	}
}

func TestPlanComputedRegionPins(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "accounts", true)
	w := eq("id", int64(1))
	w.Conds = append(w.Conds, Cond{Col: "city", Op: OpEq, Vals: []Expr{&Lit{Val: "tokyo"}}})
	plan, err := h.session.planReadStmt(nil, tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.regionPinned || len(plan.regions) != 1 {
		t.Fatalf("computed region did not pin: %v", plan.regions)
	}
	// Without the determinant column the plan must search.
	plan, err = h.session.planReadStmt(nil, tbl, h.db, eq("id", int64(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.regionPinned {
		t.Fatal("pinned without the determinant column")
	}
}

// TestPlanComputedRegionUnmappableSearches pins the per-execution side of
// computed partitioning: the shape pins on the computed region, but a value
// the region expression cannot map leaves that execution searching every
// partition, gateway first, with locality optimized search.
func TestPlanComputedRegionUnmappableSearches(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "accounts", true)
	w := eq("id", int64(1))
	w.Conds = append(w.Conds, Cond{Col: "city", Op: OpEq, Vals: []Expr{&Lit{Val: 1.5}}})
	plan, err := h.session.planReadStmt(nil, tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.regionPinned || len(plan.regions) != 3 || plan.regions[0] != simnet.EuropeW2 {
		t.Fatalf("pinned=%v regions=%v, want a gateway-first search", plan.regionPinned, plan.regions)
	}
	if !plan.los {
		t.Fatal("unpinned unique lookup should use locality optimized search")
	}
}

func TestPlanInListBuildsTuples(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	w := &Where{Conds: []Cond{{
		Col: "id", Op: OpIn,
		Vals: []Expr{&Lit{Val: int64(1)}, &Lit{Val: int64(2)}, &Lit{Val: int64(3)}},
	}}}
	plan, err := h.session.planReadStmt(nil, tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.lookups) != 3 {
		t.Fatalf("lookups = %d", len(plan.lookups))
	}
}

func TestPlanFullScanWithoutUsableIndex(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	plan, err := h.session.planReadStmt(nil, tbl, h.db, eq("city", "x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.lookups != nil {
		t.Fatal("non-indexed predicate should scan")
	}
	if plan.index.Name != "primary" {
		t.Fatalf("scan over %q", plan.index.Name)
	}
}

func TestPlanLOSDisabled(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	h.session.LocalityOptimizedSearch = false
	plan, err := h.session.planReadStmt(nil, tbl, h.db, eq("id", int64(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.los {
		t.Fatal("LOS used despite being disabled")
	}
}

func TestPlanConstraintIntersection(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	// id IN (1,2) AND id = 2 -> single lookup for 2.
	w := &Where{Conds: []Cond{
		{Col: "id", Op: OpIn, Vals: []Expr{&Lit{Val: int64(1)}, &Lit{Val: int64(2)}}},
		{Col: "id", Op: OpEq, Vals: []Expr{&Lit{Val: int64(2)}}},
	}}
	plan, err := h.session.planReadStmt(nil, tbl, h.db, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.lookups) != 1 || plan.lookups[0][0] != int64(2) {
		t.Fatalf("lookups = %v", plan.lookups)
	}
}

func TestExprColumnDeps(t *testing.T) {
	e := &CaseExpr{
		Whens: []CaseWhen{{
			Cond: &BinaryExpr{Op: "=", L: &ColRef{Name: "state"}, R: &Lit{Val: "CA"}},
			Then: &Lit{Val: "us-west1"},
		}},
		Else: &FuncCall{Name: "f", Args: []Expr{&ColRef{Name: "city"}}},
	}
	deps := exprColumnDeps(e)
	if len(deps) != 2 || deps[0] != "state" || deps[1] != "city" {
		t.Fatalf("deps = %v", deps)
	}
}

func TestIndexSpanNesting(t *testing.T) {
	h := newPlanHarness(t)
	tbl := h.mkTable(t, "users", false)
	// Partition spans must be disjoint per (index, region).
	s1, e1 := IndexSpan(tbl, tbl.Primary().ID, simnet.USEast1)
	s2, _ := IndexSpan(tbl, tbl.Primary().ID, simnet.EuropeW2)
	if string(s1) >= string(e1) {
		t.Fatal("empty span")
	}
	if string(s2) >= string(s1) && string(s2) < string(e1) {
		t.Fatal("partition spans overlap")
	}
	// Keys encode inside their partition span.
	key := EncodeIndexKey(tbl, tbl.Primary(), simnet.USEast1, []Datum{int64(5)})
	if string(key) < string(s1) || string(key) >= string(e1) {
		t.Fatal("encoded key outside its partition span")
	}
}
