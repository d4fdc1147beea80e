package main

import (
	"fmt"
	"sort"

	"mrdb/internal/cluster"
	"mrdb/internal/sim"
	"mrdb/internal/simnet"
	"mrdb/internal/sql"
	"mrdb/internal/txn"
	"mrdb/internal/workload"
)

// loadgen is one workload's load generator, bound to one episode's
// cluster. The harness calls load once, then txn from each client proc in a
// closed loop, then check after the cluster has quiesced. Every call runs
// inside a sim proc, so a loadgen needs no locking: the cooperative
// scheduler runs one proc at a time.
type loadgen interface {
	// load creates the schema, bulk-loads rows and prepares every
	// client's statements.
	load(p *sim.Proc) error
	// sessions returns one session per closed-loop client.
	sessions() []*sql.Session
	// txn runs one client transaction. write classifies it for the
	// read/write latency split; stmts counts the SQL statements issued,
	// retries included.
	txn(p *sim.Proc, client int) (write bool, stmts int, err error)
	// check verifies the database against what the clients committed.
	check(p *sim.Proc) error
}

// spec describes a named workload: its cluster, its load generator and its
// phase lengths in virtual time.
type spec struct {
	name string
	// config returns the cluster configuration for an episode seed.
	config func(seed int64) cluster.Config
	build  func(c *cluster.Cluster) loadgen
	// warmup runs the clients unmeasured (plan caches fill, leases and
	// Raft leadership settle); measure is the measured window. Clients
	// start transactions until the window closes and finish the one in
	// flight.
	warmup, measure sim.Duration
	// episodes is how many seeded episodes the virtual-time metrics pool,
	// and the fewest a run makes.
	episodes int
}

var specs = []*spec{
	{
		name: "tpcc-8r",
		config: func(seed int64) cluster.Config {
			regions, rtt := ringRegions(8)
			return cluster.Config{Seed: seed, Regions: regions, RTT: rtt, Jitter: 0.02}
		},
		build: func(c *cluster.Cluster) loadgen { return newTPCC(c) },
		// Raft re-ships unacknowledged entries on every heartbeat, so wall
		// time per transaction grows with the window: many short episodes
		// instead of one long one. The idle settle after the load is the
		// only warm-up.
		measure:  500 * sim.Millisecond,
		episodes: 15,
	},
	{
		name: "ycsb-b-local",
		config: func(seed int64) cluster.Config {
			return cluster.Config{Seed: seed, Regions: cluster.ThreeRegions(), Jitter: 0.02}
		},
		build:    func(c *cluster.Cluster) loadgen { return newYCSB(c) },
		warmup:   1 * sim.Second,
		measure:  60 * sim.Second,
		episodes: 3,
	},
	{
		name: "movr-durable",
		config: func(seed int64) cluster.Config {
			return cluster.Config{Seed: seed, Regions: cluster.ThreeRegions(), Jitter: 0.02, Durability: true}
		},
		build:    func(c *cluster.Cluster) loadgen { return newMovr(c) },
		warmup:   1 * sim.Second,
		measure:  5 * sim.Second,
		episodes: 12,
	},
}

func specByName(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

// ringRegions builds the n-region synthetic ring of the paper's Fig. 6
// scalability run: neighbours 85ms apart, every further hop 65ms more,
// capped at an intercontinental 300ms.
func ringRegions(n int) ([]cluster.RegionSpec, map[[2]simnet.Region]sim.Duration) {
	specs := make([]cluster.RegionSpec, n)
	names := make([]simnet.Region, n)
	for i := range names {
		names[i] = simnet.Region(fmt.Sprintf("region-%02d", i))
		specs[i] = cluster.RegionSpec{Name: names[i], Zones: 3, NodesPerZone: 1}
	}
	rtt := map[[2]simnet.Region]sim.Duration{}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := j - i
			if n-d < d {
				d = n - d
			}
			lat := 20*sim.Millisecond + sim.Duration(d)*65*sim.Millisecond
			if lat > 300*sim.Millisecond {
				lat = 300 * sim.Millisecond
			}
			rtt[[2]simnet.Region{names[i], names[j]}] = lat
		}
	}
	return specs, rtt
}

// regionSessions returns one session per client, clientsPerRegion at each
// region's gateway, in region order.
func regionSessions(c *cluster.Cluster, cat *sql.Catalog, db string, clientsPerRegion int) []*sql.Session {
	var out []*sql.Session
	for _, r := range c.Regions() {
		for i := 0; i < clientsPerRegion; i++ {
			s := sql.NewSession(c, cat, c.GatewayFor(r))
			s.Database = db
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// TPC-C

// tpcc runs the TPC-C mix of the Fig. 6 configuration (2 warehouses and 3
// terminals per region, 10% remote new-orders) over the exported schema and
// loader of internal/workload, with its own terminals so that every
// transaction goes through Session.RunTxn and failures are counted rather
// than fatal.
type tpcc struct {
	c       *cluster.Cluster
	cat     *sql.Catalog
	w       *workload.TPCC
	regions int
	terms   []*tpccTerm

	histSeq   int64
	newOrders int64
}

type tpccTerm struct {
	s      *sql.Session
	region int

	warehouseTax, districtBump, districtNext, customerName *sql.Prepared
	insertOrder, insertNewOrd, itemPrice, stockQty         *sql.Prepared
	stockUpdate, insertLine, whPay, distPay, custPay       *sql.Prepared
	insertHist, custStatus, orderByID, orderLines          *sql.Prepared
	lineItemIDs, newOrdByID, delNewOrd, orderCarrier       *sql.Prepared
}

const tpccTerminalsPerRegion = 3

func newTPCC(c *cluster.Cluster) *tpcc {
	cat := sql.NewCatalog()
	return &tpcc{c: c, cat: cat, w: workload.NewTPCC(c, cat, workload.DefaultTPCCConfig()), regions: len(c.Regions())}
}

const lineNums = "0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14"

func (t *tpcc) load(p *sim.Proc) error {
	if err := t.w.SetupSchema(p); err != nil {
		return err
	}
	p.Sleep(2 * sim.Second)
	if err := t.w.Load(p); err != nil {
		return err
	}
	for i, s := range regionSessions(t.c, t.cat, "tpcc", tpccTerminalsPerRegion) {
		t.terms = append(t.terms, &tpccTerm{
			s: s, region: i / tpccTerminalsPerRegion,
			warehouseTax: s.MustPrepare(`SELECT w_tax FROM warehouse WHERE w_id = $1`),
			districtBump: s.MustPrepare(`UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = $1 AND d_id = $2`),
			districtNext: s.MustPrepare(`SELECT d_next_o_id FROM district WHERE d_w_id = $1 AND d_id = $2`),
			customerName: s.MustPrepare(`SELECT c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`),
			insertOrder:  s.MustPrepare(`INSERT INTO orders (o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES ($1, $2, $3, $4, $5, $6)`),
			insertNewOrd: s.MustPrepare(`INSERT INTO new_order (no_w_id, no_d_id, no_o_id) VALUES ($1, $2, $3)`),
			itemPrice:    s.MustPrepare(`SELECT i_price FROM item WHERE i_id = $1`),
			stockQty:     s.MustPrepare(`SELECT s_quantity FROM stock WHERE s_w_id = $1 AND s_i_id = $2`),
			stockUpdate:  s.MustPrepare(`UPDATE stock SET s_quantity = $1, s_ytd = s_ytd + $2 WHERE s_w_id = $3 AND s_i_id = $4`),
			insertLine:   s.MustPrepare(`INSERT INTO order_line (ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_quantity, ol_amount) VALUES ($1, $2, $3, $4, $5, $6, $7)`),
			whPay:        s.MustPrepare(`UPDATE warehouse SET w_ytd = w_ytd + $1 WHERE w_id = $2`),
			distPay:      s.MustPrepare(`UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3`),
			custPay:      s.MustPrepare(`UPDATE customer SET c_balance = c_balance - $1, c_ytd_payment = c_ytd_payment + $2, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = $3 AND c_d_id = $4 AND c_id = $5`),
			insertHist:   s.MustPrepare(`INSERT INTO history (h_w_id, h_seq, h_amount) VALUES ($1, $2, $3)`),
			custStatus:   s.MustPrepare(`SELECT c_balance, c_name FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3`),
			orderByID:    s.MustPrepare(`SELECT * FROM orders WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3`),
			orderLines:   s.MustPrepare(`SELECT * FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3 AND ol_number IN (` + lineNums + `)`),
			lineItemIDs:  s.MustPrepare(`SELECT ol_i_id FROM order_line WHERE ol_w_id = $1 AND ol_d_id = $2 AND ol_o_id = $3 AND ol_number IN (` + lineNums + `)`),
			newOrdByID:   s.MustPrepare(`SELECT * FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3`),
			delNewOrd:    s.MustPrepare(`DELETE FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 AND no_o_id = $3`),
			orderCarrier: s.MustPrepare(`UPDATE orders SET o_carrier_id = 7 WHERE o_w_id = $1 AND o_d_id = $2 AND o_id = $3`),
		})
	}
	return nil
}

func (t *tpcc) sessions() []*sql.Session {
	out := make([]*sql.Session, len(t.terms))
	for i, term := range t.terms {
		out[i] = term.s
	}
	return out
}

// txn runs the standard-ish mix: 45% new-order, 43% payment and 4% each of
// order-status, delivery and stock-level. Order-status and stock-level are
// the read class.
func (t *tpcc) txn(p *sim.Proc, i int) (bool, int, error) {
	term := t.terms[i]
	cfg := t.w.Cfg
	rng := p.Rand()
	w := term.region + t.regions*rng.Intn(cfg.WarehousesPerRegion)
	roll := rng.Float64()
	stmts := 0
	exec := func(tx *txn.Txn, ps *sql.Prepared, args ...sql.Datum) (*sql.Result, error) {
		stmts++
		return term.s.ExecPreparedTxn(p, tx, ps, args...)
	}
	one := func(tx *txn.Txn, ps *sql.Prepared, args ...sql.Datum) ([]sql.Datum, error) {
		res, err := exec(tx, ps, args...)
		if err != nil {
			return nil, err
		}
		if len(res.Rows) == 0 {
			return nil, violationf("tpcc: no row for %s", ps.Fingerprint())
		}
		return res.Rows[0], nil
	}
	d := rng.Intn(cfg.DistrictsPerWH)
	switch {
	case roll < 0.45:
		remote := rng.Float64() < cfg.RemoteWarehouseFrac
		err := t.newOrder(p, term, w, d, rng.Intn(cfg.CustomersPerDist), remote, exec, one)
		if err == nil {
			t.newOrders++
		}
		return true, stmts, err
	case roll < 0.88:
		c := rng.Intn(cfg.CustomersPerDist)
		amount := 1.0 + float64(rng.Intn(5000))/100
		err := term.s.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := exec(tx, term.whPay, amount, int64(w)); err != nil {
				return err
			}
			if _, err := exec(tx, term.distPay, amount, int64(w), int64(d)); err != nil {
				return err
			}
			if _, err := exec(tx, term.custPay, amount, amount, int64(w), int64(d), int64(c)); err != nil {
				return err
			}
			t.histSeq++
			_, err := exec(tx, term.insertHist, int64(w), t.histSeq, amount)
			return err
		})
		return true, stmts, err
	case roll < 0.92:
		c := rng.Intn(cfg.CustomersPerDist)
		err := term.s.RunTxn(p, func(tx *txn.Txn) error {
			if _, err := one(tx, term.custStatus, int64(w), int64(d), int64(c)); err != nil {
				return err
			}
			drow, err := one(tx, term.districtNext, int64(w), int64(d))
			if err != nil {
				return err
			}
			last := drow[0].(int64) - 1
			if last < 1 {
				return nil
			}
			if _, err := one(tx, term.orderByID, int64(w), int64(d), last); err != nil {
				return err
			}
			_, err = exec(tx, term.orderLines, int64(w), int64(d), last)
			return err
		})
		return false, stmts, err
	case roll < 0.96:
		err := term.s.RunTxn(p, func(tx *txn.Txn) error {
			for d := 0; d < cfg.DistrictsPerWH; d++ {
				drow, err := one(tx, term.districtNext, int64(w), int64(d))
				if err != nil {
					return err
				}
				next := drow[0].(int64)
				for o := int64(1); o < next && o < 50; o++ {
					res, err := exec(tx, term.newOrdByID, int64(w), int64(d), o)
					if err != nil {
						return err
					}
					if len(res.Rows) == 0 {
						continue
					}
					if _, err := exec(tx, term.delNewOrd, int64(w), int64(d), o); err != nil {
						return err
					}
					if _, err := exec(tx, term.orderCarrier, int64(w), int64(d), o); err != nil {
						return err
					}
					break
				}
			}
			return nil
		})
		return true, stmts, err
	default:
		err := term.s.RunTxn(p, func(tx *txn.Txn) error {
			drow, err := one(tx, term.districtNext, int64(w), int64(d))
			if err != nil {
				return err
			}
			next := drow[0].(int64)
			seen := map[int64]bool{}
			for o := next - 5; o < next; o++ {
				if o < 1 {
					continue
				}
				res, err := exec(tx, term.lineItemIDs, int64(w), int64(d), o)
				if err != nil {
					return err
				}
				for _, row := range res.Rows {
					seen[row[0].(int64)] = true
				}
			}
			items := make([]int64, 0, len(seen))
			for item := range seen {
				items = append(items, item)
			}
			sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
			for _, item := range items {
				if _, err := one(tx, term.stockQty, int64(w), item); err != nil {
					return err
				}
			}
			return nil
		})
		return false, stmts, err
	}
}

// newOrder reads warehouse, district and customer, consumes an order ID,
// inserts orders and new_order, and for each of 5-15 lines reads the
// GLOBAL item table, updates stock (one line from a remote warehouse when
// remote) and inserts an order line.
func (t *tpcc) newOrder(p *sim.Proc, term *tpccTerm, w, d, c int, remote bool,
	exec func(*txn.Txn, *sql.Prepared, ...sql.Datum) (*sql.Result, error),
	one func(*txn.Txn, *sql.Prepared, ...sql.Datum) ([]sql.Datum, error)) error {
	cfg := t.w.Cfg
	rng := p.Rand()
	lines := 5 + rng.Intn(11)
	items := make([]int, lines)
	qtys := make([]int, lines)
	stockWH := make([]int, lines)
	for i := range items {
		items[i] = rng.Intn(cfg.Items)
		qtys[i] = 1 + rng.Intn(10)
		stockWH[i] = w
	}
	if total := cfg.WarehousesPerRegion * t.regions; remote && total > t.regions {
		stockWH[rng.Intn(lines)] = (w + 1) % total
	}
	return term.s.RunTxn(p, func(tx *txn.Txn) error {
		if _, err := one(tx, term.warehouseTax, int64(w)); err != nil {
			return err
		}
		if _, err := exec(tx, term.districtBump, int64(w), int64(d)); err != nil {
			return err
		}
		drow, err := one(tx, term.districtNext, int64(w), int64(d))
		if err != nil {
			return err
		}
		oid := drow[0].(int64) - 1
		if _, err := one(tx, term.customerName, int64(w), int64(d), int64(c)); err != nil {
			return err
		}
		if _, err := exec(tx, term.insertOrder, int64(w), int64(d), oid, int64(c), int64(0), int64(lines)); err != nil {
			return err
		}
		if _, err := exec(tx, term.insertNewOrd, int64(w), int64(d), oid); err != nil {
			return err
		}
		for line := 0; line < lines; line++ {
			irow, err := one(tx, term.itemPrice, int64(items[line]))
			if err != nil {
				return err
			}
			srow, err := one(tx, term.stockQty, int64(stockWH[line]), int64(items[line]))
			if err != nil {
				return err
			}
			qty := srow[0].(int64) - int64(qtys[line])
			if qty < 10 {
				qty += 91
			}
			if _, err := exec(tx, term.stockUpdate, qty, int64(qtys[line]), int64(stockWH[line]), int64(items[line])); err != nil {
				return err
			}
			if _, err := exec(tx, term.insertLine, int64(w), int64(d), oid, int64(line), int64(items[line]),
				int64(qtys[line]), irow[0].(float64)*float64(qtys[line])); err != nil {
				return err
			}
		}
		return nil
	})
}

// check reads back every order and every district's next order ID: both
// must account for exactly the committed new-orders.
func (t *tpcc) check(p *sim.Proc) error {
	s := t.terms[0].s
	orders, err := s.Exec(p, `SELECT o_id FROM orders`)
	if err != nil {
		return fmt.Errorf("tpcc check: %w", err)
	}
	if int64(len(orders.Rows)) != t.newOrders {
		return fmt.Errorf("tpcc check: %d order rows, %d committed new-orders", len(orders.Rows), t.newOrders)
	}
	districts, err := s.Exec(p, `SELECT d_next_o_id FROM district`)
	if err != nil {
		return fmt.Errorf("tpcc check: %w", err)
	}
	var consumed int64
	for _, row := range districts.Rows {
		consumed += row[0].(int64) - 1
	}
	if consumed != t.newOrders {
		return fmt.Errorf("tpcc check: districts consumed %d order IDs, %d committed new-orders", consumed, t.newOrders)
	}
	return nil
}

// ---------------------------------------------------------------------------
// YCSB-B

// ycsb is YCSB-B (95% reads, 5% updates) with uniform keys, 95% locality of
// access and disjoint remote keys per client, on a REGIONAL BY ROW table:
// the Fig. 4a "Default (LOS)" setting.
type ycsb struct {
	c   *cluster.Cluster
	cat *sql.Catalog
	y   *workload.YCSB
	cls []*ycsbClient
}

type ycsbClient struct {
	s            *sql.Session
	region, idx  int
	read, update *sql.Prepared
}

const (
	ycsbRecords          = 20000
	ycsbClientsPerRegion = 2
	ycsbLocality         = 0.95
	ycsbWriteFrac        = 0.05
)

func newYCSB(c *cluster.Cluster) *ycsb {
	cat := sql.NewCatalog()
	y := workload.NewYCSB(c, cat, workload.YCSBConfig{
		Variant: workload.YCSBB, RecordCount: ycsbRecords, Distribution: "uniform",
		ClientsPerRegion: ycsbClientsPerRegion, LocalityOfAccess: ycsbLocality,
	})
	return &ycsb{c: c, cat: cat, y: y}
}

func (y *ycsb) load(p *sim.Proc) error {
	if err := y.y.SetupSchema(p, "LOCALITY REGIONAL BY ROW"); err != nil {
		return err
	}
	p.Sleep(2 * sim.Second)
	if err := y.y.Load(p); err != nil {
		return err
	}
	for i, s := range regionSessions(y.c, y.cat, "ycsb", ycsbClientsPerRegion) {
		y.cls = append(y.cls, &ycsbClient{
			s: s, region: i / ycsbClientsPerRegion, idx: i % ycsbClientsPerRegion,
			read:   s.MustPrepare(`SELECT ycsb_key, field0 FROM usertable WHERE ycsb_key = $1`),
			update: s.MustPrepare(`UPDATE usertable SET field0 = $1 WHERE ycsb_key = $2`),
		})
	}
	return nil
}

func (y *ycsb) sessions() []*sql.Session {
	out := make([]*sql.Session, len(y.cls))
	for i, cl := range y.cls {
		out[i] = cl.s
	}
	return out
}

// key picks a key the way the YCSB workload's blocked layout does: local
// keys anywhere in the client's region block, remote keys from a per-client
// slice of another region's block.
func (y *ycsb) key(p *sim.Proc, cl *ycsbClient) string {
	rng := p.Rand()
	regions := len(y.c.Regions())
	block := ycsbRecords / regions
	local := rng.Float64() < ycsbLocality
	var k int
	if local {
		k = cl.region*block + rng.Intn(ycsbRecords)%block
	} else {
		remote := (cl.region + 1 + cl.idx%(regions-1)) % regions
		span := block / (ycsbClientsPerRegion + 1)
		k = remote*block + cl.idx*span + rng.Intn(ycsbRecords)%span
	}
	return fmt.Sprintf("user%09d", k)
}

func (y *ycsb) txn(p *sim.Proc, i int) (bool, int, error) {
	cl := y.cls[i]
	write := p.Rand().Float64() < ycsbWriteFrac
	key := y.key(p, cl)
	if write {
		res, err := cl.s.ExecPrepared(p, cl.update, fmt.Sprintf("u%d", p.Now()), key)
		if err == nil && res.RowsAffected != 1 {
			err = violationf("ycsb: update of %s touched %d rows", key, res.RowsAffected)
		}
		return true, 1, err
	}
	res, err := cl.s.ExecPrepared(p, cl.read, key)
	if err == nil && (len(res.Rows) != 1 || res.Rows[0][0] != key) {
		err = violationf("ycsb: read of loaded key %s returned %v", key, res.Rows)
	}
	return false, 1, err
}

// check is a no-op beyond the harness's own checks: every read verified its
// row as it ran.
func (y *ycsb) check(p *sim.Proc) error { return nil }

// ---------------------------------------------------------------------------
// MovR

// movr is the paper's §1.1 ride-sharing application: 70% GLOBAL promo-code
// reads, 25% ride transactions (read a user, read a promo, insert a
// REGIONAL BY ROW ride) and 5% signups (an insert whose UNIQUE email needs a
// global uniqueness probe).
type movr struct {
	c   *cluster.Cluster
	cat *sql.Catalog
	m   *workload.Movr
	cls []*movrClient

	nextUser, nextRide int64
	rides              map[int64]bool
	users              int64
}

type movrClient struct {
	s                                             *sql.Session
	region                                        int
	browsePromo, userByID, insertRide, insertUser *sql.Prepared
}

const movrClientsPerRegion = 3

func newMovr(c *cluster.Cluster) *movr {
	cat := sql.NewCatalog()
	return &movr{c: c, cat: cat, m: workload.NewMovr(c, cat), rides: map[int64]bool{}}
}

func (m *movr) load(p *sim.Proc) error {
	if err := m.m.Setup(p); err != nil {
		return err
	}
	p.Sleep(2 * sim.Second)
	if err := m.m.Load(p); err != nil {
		return err
	}
	m.users = int64(m.m.UsersPerRegion * len(m.c.Regions()))
	m.nextUser = m.users
	m.nextRide = 1_000_000
	for i, s := range regionSessions(m.c, m.cat, "movr", movrClientsPerRegion) {
		m.cls = append(m.cls, &movrClient{
			s: s, region: i / movrClientsPerRegion,
			browsePromo: s.MustPrepare(`SELECT * FROM promo_codes WHERE code = $1`),
			userByID:    s.MustPrepare(`SELECT name FROM users WHERE id = $1`),
			insertRide:  s.MustPrepare(`INSERT INTO rides (id, rider_id, vehicle, promo) VALUES ($1, $2, $3, $4)`),
			insertUser:  s.MustPrepare(`INSERT INTO users (id, email, name) VALUES ($1, $2, $3)`),
		})
	}
	return nil
}

func (m *movr) sessions() []*sql.Session {
	out := make([]*sql.Session, len(m.cls))
	for i, cl := range m.cls {
		out[i] = cl.s
	}
	return out
}

func (m *movr) txn(p *sim.Proc, i int) (bool, int, error) {
	cl := m.cls[i]
	rng := p.Rand()
	roll := rng.Float64()
	switch {
	case roll < 0.70:
		res, err := cl.s.ExecPrepared(p, cl.browsePromo, fmt.Sprintf("PROMO%d", rng.Intn(m.m.Promos)))
		if err == nil && len(res.Rows) != 1 {
			err = violationf("movr: promo lookup returned %d rows", len(res.Rows))
		}
		return false, 1, err
	case roll < 0.95:
		user := int64(cl.region*m.m.UsersPerRegion + 1 + rng.Intn(m.m.UsersPerRegion))
		promo := fmt.Sprintf("PROMO%d", rng.Intn(m.m.Promos))
		m.nextRide++
		ride := m.nextRide
		stmts := 0
		err := cl.s.RunTxn(p, func(tx *txn.Txn) error {
			stmts += 3
			res, err := cl.s.ExecPreparedTxn(p, tx, cl.userByID, user)
			if err != nil {
				return err
			}
			if len(res.Rows) == 0 {
				return violationf("movr: user %d missing", user)
			}
			if _, err := cl.s.ExecPreparedTxn(p, tx, cl.browsePromo, promo); err != nil {
				return err
			}
			_, err = cl.s.ExecPreparedTxn(p, tx, cl.insertRide, ride, user, "scooter", promo)
			return err
		})
		if err == nil {
			m.rides[ride] = true
		}
		return true, stmts, err
	default:
		m.nextUser++
		id := m.nextUser
		_, err := cl.s.ExecPrepared(p, cl.insertUser, id, fmt.Sprintf("user%d@movr.com", id), fmt.Sprintf("user-%d", id))
		if err == nil {
			m.users++
		}
		return true, 1, err
	}
}

// check reads back every ride and counts users: the ride rows must be
// exactly the committed rides, and users the loaded ones plus signups.
func (m *movr) check(p *sim.Proc) error {
	s := m.cls[0].s
	res, err := s.Exec(p, `SELECT id FROM rides`)
	if err != nil {
		return fmt.Errorf("movr check: %w", err)
	}
	if len(res.Rows) != len(m.rides) {
		return fmt.Errorf("movr check: %d ride rows, %d committed rides", len(res.Rows), len(m.rides))
	}
	for _, row := range res.Rows {
		if !m.rides[row[0].(int64)] {
			return fmt.Errorf("movr check: ride %v was never committed", row[0])
		}
	}
	users, err := s.Exec(p, `SELECT id FROM users`)
	if err != nil {
		return fmt.Errorf("movr check: %w", err)
	}
	if int64(len(users.Rows)) != m.users {
		return fmt.Errorf("movr check: %d user rows, %d loaded or signed up", len(users.Rows), m.users)
	}
	return nil
}
