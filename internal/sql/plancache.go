package sql

import (
	"encoding/binary"
	"fmt"

	"mrdb/internal/core"
	"mrdb/internal/mvcc"
	"mrdb/internal/simnet"
)

// Plan cache: the statement-execution fast path. Planning a statement
// twice with the same fingerprint, catalog version, gateway region and
// WHERE-clause arities makes every *shape* decision — index choice,
// partition-resolution mode, search order, locality-optimized-search
// eligibility — identically, so the cache memoizes the shape the planner
// builds (readShape, insertShape) and every execution binds its own values
// to it. Constraint values, lookup tuples and computed regions are
// evaluated per execution, once each and in the same order whether the
// shape came from the cache or was built fresh, which keeps RNG and clock
// draws — and therefore span trees and statement statistics — byte-identical
// with the cache on or off. Catalog.noPlanCache builds a fresh shape for
// every statement; tests use it as the reference the memoized shapes must
// match.

// planCache outcome labels rendered by EXPLAIN ANALYZE.
const (
	planCacheHit  = "hit"
	planCacheMiss = "miss"
	planCacheOff  = "off"
)

// insertShape is the value-independent half of an INSERT: resolved target
// columns, the default/computed column schedule, and the uuid-default set
// that drives uniqueness-check elision (§4.1).
type insertShape struct {
	cols     []ColumnID
	defaults []*Column
	computed []*Column
	// fromDefault is the shared, read-only gen_random_uuid() default set
	// (every execution of this shape fills the same columns from defaults).
	fromDefault map[ColumnID]bool
	prefixes    prefixCache
}

// prefixEntry memoizes one index partition's key prefix.
type prefixEntry struct {
	idx    IndexID
	region simnet.Region
	key    mvcc.Key
}

// prefixCache memoizes index-partition key prefixes per plan shape, so hot
// key construction skips IndexPrefix's per-key formatting. The entry count
// is bounded by indexes × regions of one table, so a linear scan beats a
// map. Entries are appended lazily; the cooperative scheduler serializes
// sessions, so no locking is needed (same argument as StmtStats).
type prefixCache struct {
	entries []prefixEntry
}

// indexKey builds a full index key using the memoized prefix: one
// exact-capacity allocation per key instead of formatting garbage. The
// bytes are identical to EncodeIndexKey's.
func (pc *prefixCache) indexKey(t *Table, idx *Index, region simnet.Region, vals []Datum) mvcc.Key {
	var prefix mvcc.Key
	for i := range pc.entries {
		e := &pc.entries[i]
		if e.idx == idx.ID && e.region == region {
			prefix = e.key
			break
		}
	}
	if prefix == nil {
		prefix = IndexPrefix(t, idx.ID, region)
		pc.entries = append(pc.entries, prefixEntry{idx: idx.ID, region: region, key: prefix})
	}
	key := make(mvcc.Key, len(prefix), len(prefix)+KeyTupleSize(vals))
	copy(key, prefix)
	return AppendKeyTuple(key, vals)
}

// PlanCache holds cached statement shapes keyed by fingerprint-derived
// strings. It is cluster-shared state on the Catalog (like StmtStats) and
// is invalidated wholesale when the catalog version moves: DDL,
// ALTER TABLE ... LOCALITY, ALTER DATABASE ADD/DROP REGION, survivability,
// placement and primary-region changes all bump the version.
type PlanCache struct {
	version uint64
	reads   map[string]*readShape
	inserts map[string]*insertShape
	hits    uint64
	misses  uint64
}

// planCacheMaxEntries bounds each shape map; workloads have a handful of
// statement shapes, so hitting the bound means something is generating
// unbounded shapes and caching them would only burn memory.
const planCacheMaxEntries = 4096

// sync drops every entry when the catalog version has moved since the last
// access: O(1) invalidation, no stale plan can survive a schema change.
func (pc *PlanCache) sync(version uint64) {
	if pc.version != version {
		pc.reads, pc.inserts = nil, nil
		pc.version = version
	}
}

func (pc *PlanCache) getRead(version uint64, key []byte) *readShape {
	pc.sync(version)
	cr := pc.reads[string(key)]
	if cr != nil {
		pc.hits++
	} else {
		pc.misses++
	}
	return cr
}

func (pc *PlanCache) putRead(version uint64, key string, cr *readShape) {
	pc.sync(version)
	if pc.reads == nil {
		pc.reads = map[string]*readShape{}
	}
	if len(pc.reads) < planCacheMaxEntries {
		pc.reads[key] = cr
	}
}

func (pc *PlanCache) getInsert(version uint64, key []byte) *insertShape {
	pc.sync(version)
	ci := pc.inserts[string(key)]
	if ci != nil {
		pc.hits++
	} else {
		pc.misses++
	}
	return ci
}

func (pc *PlanCache) putInsert(version uint64, key string, ci *insertShape) {
	pc.sync(version)
	if pc.inserts == nil {
		pc.inserts = map[string]*insertShape{}
	}
	if len(pc.inserts) < planCacheMaxEntries {
		pc.inserts[key] = ci
	}
}

// PlanCacheStats returns the cumulative hit and miss counts.
func (c *Catalog) PlanCacheStats() (hits, misses uint64) {
	return c.plans.hits, c.plans.misses
}

// PlanCacheLen returns the number of cached statement shapes at the current
// catalog version.
func (c *Catalog) PlanCacheLen() int {
	c.plans.sync(c.version)
	return len(c.plans.reads) + len(c.plans.inserts)
}

// --- cache keys ---

// stmtFingerprint returns the current statement's fingerprint: the one the
// prepared-statement path or ExecStmt already computed, or a fresh one.
func (s *Session) stmtFingerprint(stmt Statement) string {
	if s.curFP != "" {
		return s.curFP
	}
	return Fingerprint(stmt)
}

// readPlanKey builds the read-plan cache key into the session scratch
// buffer: database, fingerprint, gateway region, LOS setting and the
// per-conjunct value arities. Fingerprints erase IN-list arity, but tuple
// counts and computed-region eligibility depend on it, so arities must key
// the cache. The returned slice aliases session scratch.
func (s *Session) readPlanKey(fp string, w *Where) []byte {
	b := append(s.keyScratch[:0], s.Database...)
	b = append(b, 0)
	b = append(b, fp...)
	b = append(b, 0)
	b = append(b, s.Region()...)
	if s.LocalityOptimizedSearch {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if w != nil {
		for _, c := range w.Conds {
			b = binary.AppendUvarint(b, uint64(len(c.Vals)))
		}
	}
	s.keyScratch = b
	return b
}

// insertPlanKey builds the INSERT cache key (database + fingerprint; the
// fingerprint already pins table, column list and row shape).
func (s *Session) insertPlanKey(fp string) []byte {
	b := append(s.keyScratch[:0], s.Database...)
	b = append(b, 0)
	b = append(b, fp...)
	s.keyScratch = b
	return b
}

// cacheableWhere rejects WHERE clauses that constrain the same column more
// than once: conjunct intersection can empty a value set depending on the
// concrete values, which makes index usability — and with it the whole plan
// shape — value-dependent rather than shape-determined.
func cacheableWhere(w *Where) bool {
	if w == nil {
		return true
	}
	for i, c := range w.Conds {
		for j := 0; j < i; j++ {
			if w.Conds[j].Col == c.Col {
				return false
			}
		}
	}
	return true
}

// filterCoveredByLookup reports whether the per-row filter pass is provably
// redundant: every conjunct targets an indexed column with pure
// literal/placeholder values, so rows fetched via the lookup tuples satisfy
// the WHERE clause by construction. Non-pure values (function calls) keep
// the filter, both for correctness and because their per-row
// re-evaluation may draw from the RNG.
func filterCoveredByLookup(t *Table, idx *Index, w *Where) bool {
	if w == nil {
		return true
	}
	for _, c := range w.Conds {
		col, ok := t.Column(c.Col)
		if !ok {
			return false
		}
		indexed := false
		for _, cid := range idx.Cols {
			if cid == col.ID {
				indexed = true
				break
			}
		}
		if !indexed {
			return false
		}
		for _, e := range c.Vals {
			switch e.(type) {
			case *Lit, *Placeholder:
			default:
				return false
			}
		}
	}
	return true
}

// --- read path ---

// readShapeFor returns stmt's read shape: memoized in the plan cache when
// the WHERE clause is cacheable, built fresh when it is not or when the
// cache is off (the test reference).
func (s *Session) readShapeFor(stmt Statement, t *Table, db *core.Database, w *Where, cons map[string][]Datum, limit int) *readShape {
	if s.Catalog.noPlanCache {
		s.lastPlanCache = planCacheOff
		return s.buildReadShape(t, db, w, cons, limit)
	}
	if !cacheableWhere(w) {
		s.lastPlanCache = planCacheMiss
		return s.buildReadShape(t, db, w, cons, limit)
	}
	key := s.readPlanKey(s.stmtFingerprint(stmt), w)
	if sh := s.Catalog.plans.getRead(s.Catalog.version, key); sh != nil {
		s.lastPlanCache = planCacheHit
		return sh
	}
	s.lastPlanCache = planCacheMiss
	sh := s.buildReadShape(t, db, w, cons, limit)
	s.Catalog.plans.putRead(s.Catalog.version, string(key), sh)
	return sh
}

func regionColumnName(t *Table) string {
	col, ok := t.ColumnByID(t.RegionColumn)
	if !ok {
		return ""
	}
	return col.Name
}

// --- insert path ---

// insertShapeFor returns the shape of an INSERT, memoized in the plan
// cache unless the cache is off.
func (s *Session) insertShapeFor(st *Insert, t *Table) (*insertShape, error) {
	if s.Catalog.noPlanCache {
		s.lastPlanCache = planCacheOff
		return buildInsertShape(st, t)
	}
	key := s.insertPlanKey(s.stmtFingerprint(st))
	if sh := s.Catalog.plans.getInsert(s.Catalog.version, key); sh != nil {
		s.lastPlanCache = planCacheHit
		return sh, nil
	}
	s.lastPlanCache = planCacheMiss
	sh, err := buildInsertShape(st, t)
	if err != nil {
		return nil, err
	}
	s.Catalog.plans.putInsert(s.Catalog.version, string(key), sh)
	return sh, nil
}

// buildInsertShape resolves an INSERT's target columns and precomputes the
// default/computed evaluation schedule.
func buildInsertShape(st *Insert, t *Table) (*insertShape, error) {
	cols := st.Columns
	if cols == nil {
		for _, c := range t.VisibleColumns() {
			cols = append(cols, c.Name)
		}
	}
	sh := &insertShape{fromDefault: map[ColumnID]bool{}}
	provided := map[ColumnID]bool{}
	for _, name := range cols {
		c, ok := t.Column(name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q", name)
		}
		sh.cols = append(sh.cols, c.ID)
		provided[c.ID] = true
	}
	for _, c := range t.Columns {
		if provided[c.ID] || c.Computed != nil {
			continue
		}
		if c.Default != nil {
			sh.defaults = append(sh.defaults, c)
			if fc, ok := c.Default.(*FuncCall); ok && fc.Name == "gen_random_uuid" {
				sh.fromDefault[c.ID] = true
			}
		}
	}
	for _, c := range t.Columns {
		if c.Computed != nil {
			sh.computed = append(sh.computed, c)
		}
	}
	return sh, nil
}

// rowValues evaluates one row of an INSERT over its shape: the provided
// expressions in column order, then the defaults of the columns left out,
// then the computed columns over the full row; it then validates NOT NULL
// and region writability (a READ ONLY region value, mid DROP REGION
// §2.4.1, rejects writes). One name→value map is built per row and updated
// incrementally, which is observationally identical to rebuilding it
// before every default and computed evaluation.
func (s *Session) rowValues(sh *insertShape, t *Table, db *core.Database, exprs []Expr) (map[ColumnID]Datum, error) {
	vals := make(map[ColumnID]Datum, len(t.Columns))
	for i, cid := range sh.cols {
		v, err := s.evalExpr(exprs[i], nil)
		if err != nil {
			return nil, err
		}
		vals[cid] = v
	}
	var ctx *evalCtx
	if len(sh.defaults)+len(sh.computed) > 0 {
		ctx = &evalCtx{session: s, row: t.namedVals(vals)}
	}
	for _, c := range sh.defaults {
		v, err := s.evalExpr(c.Default, ctx)
		if err != nil {
			return nil, err
		}
		vals[c.ID] = v
		ctx.row[c.Name] = v
	}
	for _, c := range sh.computed {
		v, err := s.evalExpr(c.Computed, ctx)
		if err != nil {
			return nil, err
		}
		vals[c.ID] = v
		ctx.row[c.Name] = v
	}
	for _, c := range t.Columns {
		if c.NotNull && vals[c.ID] == nil {
			return nil, fmt.Errorf("sql: null value in column %q", c.Name)
		}
	}
	if t.IsPartitioned() {
		r, err := rowRegion(t, vals)
		if err != nil {
			return nil, err
		}
		if !db.CanWriteRegion(r) {
			return nil, fmt.Errorf("sql: region %q is not writable", r)
		}
	}
	return vals, nil
}

// --- pooled row materialization ---

// rowPoolMax bounds the per-session free list of row maps.
const rowPoolMax = 64

// getRowMap returns a cleared row map from the session pool, or a fresh
// one.
func (s *Session) getRowMap() map[ColumnID]Datum {
	if n := len(s.rowPool); n > 0 {
		m := s.rowPool[n-1]
		s.rowPool = s.rowPool[:n-1]
		for k := range m {
			delete(m, k)
		}
		return m
	}
	return make(map[ColumnID]Datum, 8)
}

func (s *Session) putRowMap(m map[ColumnID]Datum) {
	if m != nil && len(s.rowPool) < rowPoolMax {
		s.rowPool = append(s.rowPool, m)
	}
}

// releaseRows returns fetched rows' value maps to the pool once a statement
// is done with them (results hold copied datums, never the maps).
func (s *Session) releaseRows(rows []tableRow) {
	for i := range rows {
		s.putRowMap(rows[i].vals)
		rows[i].vals = nil
	}
}
