//! The five TPC-C transactions and the transaction mix.

use rand::Rng;

use prins_pagestore::{Row, StoreError, Value};

use super::db::TpccDatabase;
use super::keys;

/// The five TPC-C transaction types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum TxnKind {
    /// New-Order (45 % of the mix).
    NewOrder,
    /// Payment (43 %).
    Payment,
    /// Order-Status (4 %, read-only).
    OrderStatus,
    /// Delivery (4 %).
    Delivery,
    /// Stock-Level (4 %, read-only).
    StockLevel,
}

impl TxnKind {
    /// All kinds in mix order.
    pub(crate) const ALL: [TxnKind; 5] = [
        TxnKind::NewOrder,
        TxnKind::Payment,
        TxnKind::OrderStatus,
        TxnKind::Delivery,
        TxnKind::StockLevel,
    ];
}

/// The specification mix, weights in [`TxnKind::ALL`] order:
/// 45/43/4/4/4.
const MIX: [u32; 5] = [45, 43, 4, 4, 4];

/// Transactions between checkpoints (buffer pool flushes).
const CHECKPOINT_INTERVAL: usize = 10;

/// Draws a transaction kind from [`MIX`].
fn draw<R: Rng>(rng: &mut R) -> TxnKind {
    let total: u32 = MIX.iter().sum();
    let mut roll = rng.random_range(0..total);
    for (kind, &w) in TxnKind::ALL.iter().zip(&MIX) {
        if roll < w {
            return *kind;
        }
        roll -= w;
    }
    TxnKind::StockLevel
}

/// Executes TPC-C transactions against a [`TpccDatabase`].
///
/// The driver checkpoints (flushes the buffer pool) every 10
/// transactions, which is when dirty pages become
/// device writes — the write stream the replication experiments
/// measure.
pub struct TpccDriver {
    db: TpccDatabase,
    clock: u64,
    counts: [u64; 5],
    since_checkpoint: usize,
}

impl TpccDriver {
    /// Wraps a populated database with the spec mix and a checkpoint
    /// every 10 transactions.
    pub fn new(db: TpccDatabase) -> Self {
        Self {
            db,
            clock: 0,
            counts: [0; 5],
            since_checkpoint: 0,
        }
    }

    /// Total transactions executed.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Runs `n` transactions drawn from the mix.
    ///
    /// # Errors
    ///
    /// Propagates storage failures; the database may be mid-transaction
    /// on error (there is no abort/rollback — the workload only needs
    /// the write stream).
    pub fn run<R: Rng>(&mut self, rng: &mut R, n: usize) -> Result<(), StoreError> {
        for _ in 0..n {
            self.execute(draw(rng), rng)?;
        }
        // Final checkpoint so trailing writes reach the device.
        self.db.pool.flush_all()?;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Runs one transaction of `kind`, checkpointing every
    /// [`CHECKPOINT_INTERVAL`] transactions.
    fn execute<R: Rng>(&mut self, kind: TxnKind, rng: &mut R) -> Result<(), StoreError> {
        self.clock += 1;
        match kind {
            TxnKind::NewOrder => self.new_order(rng)?,
            TxnKind::Payment => self.payment(rng)?,
            TxnKind::OrderStatus => self.order_status(rng)?,
            TxnKind::Delivery => self.delivery(rng)?,
            TxnKind::StockLevel => self.stock_level(rng)?,
        }
        let idx = TxnKind::ALL.iter().position(|k| *k == kind).unwrap();
        self.counts[idx] += 1;
        self.since_checkpoint += 1;
        if self.since_checkpoint >= CHECKPOINT_INTERVAL {
            self.db.pool.flush_all()?;
            self.since_checkpoint = 0;
        }
        Ok(())
    }

    fn pick_warehouse<R: Rng>(&self, rng: &mut R) -> u64 {
        rng.random_range(1..=self.db.scale.warehouses)
    }

    fn pick_district<R: Rng>(&self, rng: &mut R) -> u64 {
        rng.random_range(1..=self.db.scale.districts)
    }

    // ------------------------------------------------------------------
    // New-Order (clause 2.4)
    // ------------------------------------------------------------------

    fn new_order<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let scale = self.db.scale;
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let c = self.db.rand.customer_id(rng, scale.customers);

        // Read warehouse tax, customer discount (read-only here).
        let _warehouse = self.db.warehouse.get(keys::wh(w))?;
        let _customer = self.db.customer.get(keys::cust(w, d, c))?;

        // District: take o_id, bump d_next_o_id.
        let mut district = self.db.district.get(keys::dist(w, d))?;
        let o_id = district.values()[10].as_key();
        district.values_mut()[10] = Value::U64(o_id + 1);
        self.db.district.update(keys::dist(w, d), &district)?;

        let ol_cnt = rng.random_range(5..=15u64);
        let all_local = scale.warehouses == 1 || rng.random_range(0..100u8) > 0;
        for line in 1..=ol_cnt {
            let i = self.db.rand.item_id(rng, scale.items);
            let supply_w = if all_local || scale.warehouses == 1 {
                w
            } else {
                // 1 % remote line: any other warehouse.
                let mut other = rng.random_range(1..=scale.warehouses);
                if other == w {
                    other = other % scale.warehouses + 1;
                }
                other
            };
            let qty = rng.random_range(1..=10u64);
            let item = self.db.item.get(i)?;
            let price = match &item.values()[3] {
                Value::F64(p) => *p,
                _ => 0.0,
            };

            // Stock read-modify-write (the dominant write source).
            let mut stock = self.db.stock.get(keys::stock(supply_w, i))?;
            let s_qty = stock.values()[2].as_key();
            let new_qty = if s_qty >= qty + 10 {
                s_qty - qty
            } else {
                s_qty + 91 - qty
            };
            stock.values_mut()[2] = Value::U64(new_qty);
            stock.values_mut()[13] = Value::U64(stock.values()[13].as_key() + qty); // ytd
            stock.values_mut()[14] = Value::U64(stock.values()[14].as_key() + 1); // order_cnt
            if supply_w != w {
                stock.values_mut()[15] = Value::U64(stock.values()[15].as_key() + 1);
            }
            let dist_info = match &stock.values()[2 + d as usize] {
                Value::Str(s) => s.clone(),
                _ => String::new(),
            };
            self.db.stock.update(keys::stock(supply_w, i), &stock)?;

            let ol = Row::new(vec![
                Value::U64(o_id),
                Value::U64(d),
                Value::U64(w),
                Value::U64(line),
                Value::U64(i),
                Value::U64(supply_w),
                Value::U64(0), // delivery_d (null)
                Value::U64(qty),
                Value::F64(price * qty as f64),
                Value::Str(dist_info),
            ]);
            self.db
                .order_line
                .insert(keys::order_line(w, d, o_id, line), &ol)?;
        }

        let order = Row::new(vec![
            Value::U64(o_id),
            Value::U64(d),
            Value::U64(w),
            Value::U64(c),
            Value::U64(self.clock), // entry date
            Value::U64(0),          // carrier (null)
            Value::U64(ol_cnt),
            Value::U64(all_local as u64),
        ]);
        self.db.order.insert(keys::order(w, d, o_id), &order)?;
        let no = Row::new(vec![Value::U64(o_id), Value::U64(d), Value::U64(w)]);
        self.db.new_order.insert(keys::order(w, d, o_id), &no)?;
        self.db
            .pending
            .get_mut(&keys::dist(w, d))
            .expect("district queue exists")
            .push_back(o_id);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Payment (clause 2.5)
    // ------------------------------------------------------------------

    fn payment<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let scale = self.db.scale;
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let c = self.db.rand.customer_id(rng, scale.customers);
        let amount = rng.random_range(100..=500_000) as f64 / 100.0;

        let mut warehouse = self.db.warehouse.get(keys::wh(w))?;
        let w_ytd = match warehouse.values()[8] {
            Value::F64(v) => v,
            _ => 0.0,
        };
        warehouse.values_mut()[8] = Value::F64(w_ytd + amount);
        self.db.warehouse.update(keys::wh(w), &warehouse)?;

        let mut district = self.db.district.get(keys::dist(w, d))?;
        let d_ytd = match district.values()[9] {
            Value::F64(v) => v,
            _ => 0.0,
        };
        district.values_mut()[9] = Value::F64(d_ytd + amount);
        self.db.district.update(keys::dist(w, d), &district)?;

        let mut customer = self.db.customer.get(keys::cust(w, d, c))?;
        let balance = match customer.values()[16] {
            Value::F64(v) => v,
            _ => 0.0,
        };
        customer.values_mut()[16] = Value::F64(balance - amount);
        let ytd = match customer.values()[17] {
            Value::F64(v) => v,
            _ => 0.0,
        };
        customer.values_mut()[17] = Value::F64(ytd + amount);
        customer.values_mut()[18] = Value::U64(customer.values()[18].as_key() + 1);
        // Bad-credit customers get payment info prepended to c_data
        // (truncated to 500), per clause 2.5.2.2 — a larger in-page
        // delta than the numeric fields alone.
        if customer.values()[13] == Value::Str("BC".into()) {
            if let Value::Str(data) = &customer.values()[20] {
                let mut new_data = format!("{c},{d},{w},{d},{w},{amount:.2};{data}");
                new_data.truncate(500);
                customer.values_mut()[20] = Value::Str(new_data);
            }
        }
        self.db.customer.update(keys::cust(w, d, c), &customer)?;

        let history = Row::new(vec![
            Value::U64(c),
            Value::U64(d),
            Value::U64(w),
            Value::U64(d),
            Value::U64(w),
            Value::U64(self.clock),
            Value::F64(amount),
            Value::Str(format!("payment w{w} d{d}")),
        ]);
        self.db.history.insert(&history)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Order-Status (clause 2.6, read-only)
    // ------------------------------------------------------------------

    fn order_status<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let scale = self.db.scale;
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let c = self.db.rand.customer_id(rng, scale.customers);
        let _customer = self.db.customer.get(keys::cust(w, d, c))?;

        // Most recent order of the district, if any.
        let district = self.db.district.get(keys::dist(w, d))?;
        let next_o = district.values()[10].as_key();
        if next_o > 1 {
            let o_id = next_o - 1;
            if let Ok(order) = self.db.order.get(keys::order(w, d, o_id)) {
                let ol_cnt = order.values()[6].as_key();
                for line in 1..=ol_cnt {
                    let _ = self.db.order_line.get(keys::order_line(w, d, o_id, line))?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Delivery (clause 2.7)
    // ------------------------------------------------------------------

    fn delivery<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let scale = self.db.scale;
        let w = self.pick_warehouse(rng);
        let carrier = rng.random_range(1..=10u64);
        for d in 1..=scale.districts {
            let Some(o_id) = self
                .db
                .pending
                .get_mut(&keys::dist(w, d))
                .and_then(|q| q.pop_front())
            else {
                continue;
            };
            self.db.new_order.delete(keys::order(w, d, o_id))?;

            let mut order = self.db.order.get(keys::order(w, d, o_id))?;
            let c = order.values()[3].as_key();
            let ol_cnt = order.values()[6].as_key();
            order.values_mut()[5] = Value::U64(carrier);
            self.db.order.update(keys::order(w, d, o_id), &order)?;

            let mut total = 0.0;
            for line in 1..=ol_cnt {
                let key = keys::order_line(w, d, o_id, line);
                let mut ol = self.db.order_line.get(key)?;
                ol.values_mut()[6] = Value::U64(self.clock); // delivery date
                if let Value::F64(amount) = ol.values()[8] {
                    total += amount;
                }
                self.db.order_line.update(key, &ol)?;
            }

            let mut customer = self.db.customer.get(keys::cust(w, d, c))?;
            if let Value::F64(balance) = customer.values()[16] {
                customer.values_mut()[16] = Value::F64(balance + total);
            }
            customer.values_mut()[19] = Value::U64(customer.values()[19].as_key() + 1);
            self.db.customer.update(keys::cust(w, d, c), &customer)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Stock-Level (clause 2.8, read-only)
    // ------------------------------------------------------------------

    fn stock_level<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let w = self.pick_warehouse(rng);
        let d = self.pick_district(rng);
        let threshold = rng.random_range(10..=20u64);
        let district = self.db.district.get(keys::dist(w, d))?;
        let next_o = district.values()[10].as_key();
        let first = next_o.saturating_sub(20).max(1);
        let mut low = 0u64;
        for o_id in first..next_o {
            let Ok(order) = self.db.order.get(keys::order(w, d, o_id)) else {
                continue;
            };
            let ol_cnt = order.values()[6].as_key();
            for line in 1..=ol_cnt {
                let ol = self.db.order_line.get(keys::order_line(w, d, o_id, line))?;
                let i = ol.values()[4].as_key();
                let stock = self.db.stock.get(keys::stock(w, i))?;
                if stock.values()[2].as_key() < threshold {
                    low += 1;
                }
            }
        }
        let _ = low;
        Ok(())
    }
}

impl std::fmt::Debug for TpccDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpccDriver")
            .field("total", &self.total())
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcc::{TpccDatabase, TpccScale};
    use prins_block::{BlockDevice, BlockSize, InstrumentedDevice, MemDevice};
    use prins_pagestore::{BufferPool, DbProfile};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn driver() -> (
        TpccDriver,
        Arc<InstrumentedDevice<MemDevice>>,
        rand::rngs::StdRng,
    ) {
        let device = Arc::new(InstrumentedDevice::new(MemDevice::new(
            BlockSize::kb8(),
            8192,
        )));
        let pool = BufferPool::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let db =
            TpccDatabase::build(&pool, DbProfile::oracle(), TpccScale::tiny(), &mut rng).unwrap();
        device.reset_stats(); // measure only the transaction phase
        (TpccDriver::new(db), device, rng)
    }

    /// Runs `n` transactions of one kind, then the final checkpoint
    /// `run` ends with.
    fn run_only(driver: &mut TpccDriver, kind: TxnKind, rng: &mut rand::rngs::StdRng, n: usize) {
        for _ in 0..n {
            driver.execute(kind, rng).unwrap();
        }
        driver.db.pool.flush_all().unwrap();
    }

    #[test]
    fn mix_follows_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(draw(&mut rng)).or_insert(0u32) += 1;
        }
        assert!(counts[&TxnKind::NewOrder] > 4000);
        assert!(counts[&TxnKind::Payment] > 3800);
        assert!(counts[&TxnKind::Delivery] < 800);
    }

    #[test]
    fn transactions_run_and_produce_device_writes() {
        let (mut driver, device, mut rng) = driver();
        driver.run(&mut rng, 200).unwrap();
        assert_eq!(driver.total(), 200);
        let stats = device.stats();
        assert!(stats.writes > 20, "expected device writes, got {stats:?}");
        // All five kinds occurred.
        for (kind, &count) in TxnKind::ALL.iter().zip(&driver.counts) {
            if matches!(kind, TxnKind::NewOrder | TxnKind::Payment) {
                assert!(count > 50, "{kind:?} ran {count} times");
            }
        }
    }

    #[test]
    fn new_order_advances_district_counter() {
        let (mut driver, _device, mut rng) = driver();
        let before: u64 = (1..=2)
            .map(|d| driver.db.district.get(keys::dist(1, d)).unwrap().values()[10].as_key())
            .sum();
        run_only(&mut driver, TxnKind::NewOrder, &mut rng, 20);
        let after: u64 = (1..=2)
            .map(|d| driver.db.district.get(keys::dist(1, d)).unwrap().values()[10].as_key())
            .sum();
        assert_eq!(after - before, 20);
        assert_eq!(driver.db.order.table.len(), 20);
        assert_eq!(driver.db.new_order.table.len(), 20);
        assert!(driver.db.order_line.table.len() >= 100); // >= 5 lines each
    }

    #[test]
    fn delivery_drains_new_orders() {
        let (mut driver, _device, mut rng) = driver();
        run_only(&mut driver, TxnKind::NewOrder, &mut rng, 30);
        let pending_before: usize = driver.db.pending.values().map(|q| q.len()).sum();
        assert_eq!(pending_before, 30);
        run_only(&mut driver, TxnKind::Delivery, &mut rng, 30);
        let pending_after: usize = driver.db.pending.values().map(|q| q.len()).sum();
        assert_eq!(pending_after, 0);
        assert_eq!(driver.db.new_order.table.len(), 0);
    }

    #[test]
    fn payment_accumulates_ytd() {
        let (mut driver, _device, mut rng) = driver();
        run_only(&mut driver, TxnKind::Payment, &mut rng, 25);
        let warehouse = driver.db.warehouse.get(keys::wh(1)).unwrap();
        if let Value::F64(ytd) = warehouse.values()[8] {
            assert!(ytd > 300_000.0, "w_ytd grew to {ytd}");
        } else {
            panic!("w_ytd missing");
        }
        assert_eq!(driver.db.history.len(), 25);
    }

    #[test]
    fn write_deltas_are_in_the_papers_band() {
        // The paper's premise: 5-20% of a block changes per write. Page
        // checkpoints batch several row updates, so allow a wider band
        // but insist writes are partial, not full-block.
        let (mut driver, device, mut rng) = driver();
        let stats = Arc::new(std::sync::Mutex::new(prins_parity::DeltaStats::default()));
        let sink = Arc::clone(&stats);
        device.set_observer(Box::new(move |_seq, _lba, old, new| {
            let write = prins_parity::DeltaStats::measure(old, new);
            sink.lock().unwrap().merge(&write);
        }));
        driver.run(&mut rng, 150).unwrap();
        let stats = stats.lock().unwrap();
        assert!(stats.block_bytes > 0, "no writes observed");
        let ratio = stats.change_ratio();
        assert!(
            ratio > 0.01 && ratio < 0.45,
            "mean change ratio {:.3} outside plausible band",
            ratio
        );
    }
}
