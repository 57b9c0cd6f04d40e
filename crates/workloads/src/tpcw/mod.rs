//! TPC-W-lite: the transactional web benchmark of Figure 6.
//!
//! The paper runs the UW-Madison Java TPC-W (an on-line bookstore) with
//! Tomcat in front of MySQL: 30 emulated browsers, 10 000 rows in the
//! ITEM table. The web tier only shapes the *mix* of database work, so
//! this driver reproduces the database effects of the TPC-W shopping
//! mix directly:
//!
//! * browsing interactions → skewed item/customer reads,
//! * shopping-cart interactions → per-browser in-memory carts plus item
//!   reads,
//! * buy-confirm → order + order-line + credit-card rows inserted,
//!   item stock decremented, customer balance updated,
//! * customer registration → customer row inserted,
//! * admin item update → item row rewritten (price/data).
//!
//! Thirty emulated browsers cycle through sessions exactly as the
//! benchmark's EBs do; content generation follows the spec's field
//! shapes (names, ISBNs, 100–500 char descriptions) so page deltas and
//! compressibility are realistic.

use rand::Rng;

use prins_pagestore::{BufferPool, DbProfile, Row, StoreError, Table, Value};

use crate::text::{a_string, n_string, prose, TpccRand};
use crate::tpcc::db::Indexed;

/// Cardinalities for the bookstore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TpcwScale {
    /// Rows in the ITEM table (paper: 10 000).
    pub(crate) items: u64,
    /// Pre-loaded customers.
    pub(crate) customers: u64,
    /// Emulated browsers (paper: 30).
    pub(crate) browsers: usize,
}

impl TpcwScale {
    /// Laptop-scale: same shape, fewer rows.
    pub(crate) fn bench() -> Self {
        Self {
            items: 1_000,
            customers: 288,
            browsers: 30,
        }
    }

    /// Minimal configuration for unit tests.
    pub(crate) fn tiny() -> Self {
        Self {
            items: 50,
            customers: 20,
            browsers: 4,
        }
    }
}

struct CartLine {
    item: u64,
    qty: u64,
}

/// Drives the TPC-W-lite bookstore.
pub(crate) struct TpcwDriver {
    pool: BufferPool,
    scale: TpcwScale,
    rand: TpccRand,
    item: Indexed,
    customer: Indexed,
    orders: Table,
    order_line: Table,
    cc_xacts: Table,
    carts: Vec<Vec<CartLine>>,
    next_order: u64,
    next_customer: u64,
    clock: u64,
    interactions: u64,
    checkpoint_interval: usize,
    since_checkpoint: usize,
}

impl TpcwDriver {
    /// Builds and populates the bookstore.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub(crate) fn build<R: Rng>(
        pool: &BufferPool,
        scale: TpcwScale,
        rng: &mut R,
    ) -> Result<Self, StoreError> {
        // MySQL profile: the paper's TPC-W backend.
        let profile = DbProfile::mysql();
        let mut driver = Self {
            pool: pool.clone(),
            scale,
            rand: TpccRand::new(rng),
            item: Indexed::create(pool, profile)?,
            customer: Indexed::create(pool, profile)?,
            orders: Table::with_profile(pool, profile)?,
            order_line: Table::with_profile(pool, profile)?,
            cc_xacts: Table::with_profile(pool, profile)?,
            carts: (0..scale.browsers).map(|_| Vec::new()).collect(),
            next_order: 1,
            next_customer: scale.customers + 1,
            clock: 0,
            interactions: 0,
            checkpoint_interval: 20,
            since_checkpoint: 0,
        };
        for i in 1..=scale.items {
            let row = item_row(rng, i);
            driver.item.insert(i, &row)?;
        }
        for c in 1..=scale.customers {
            let row = customer_row(rng, c);
            driver.customer.insert(c, &row)?;
        }
        pool.flush_all()?;
        Ok(driver)
    }

    /// Interactions executed so far.
    pub(crate) fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Orders placed so far.
    pub(crate) fn orders_placed(&self) -> u64 {
        self.next_order - 1
    }

    /// Runs `n` browser interactions (round-robin over the EBs),
    /// flushing the pool at checkpoint boundaries and at the end.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub(crate) fn run<R: Rng>(&mut self, rng: &mut R, n: usize) -> Result<(), StoreError> {
        for k in 0..n {
            let browser = k % self.scale.browsers;
            self.interact(rng, browser)?;
            self.since_checkpoint += 1;
            if self.since_checkpoint >= self.checkpoint_interval {
                self.pool.flush_all()?;
                self.since_checkpoint = 0;
            }
        }
        self.pool.flush_all()?;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Runs one interaction for `browser`, drawn from the shopping mix.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub(crate) fn interact<R: Rng>(
        &mut self,
        rng: &mut R,
        browser: usize,
    ) -> Result<(), StoreError> {
        self.clock += 1;
        self.interactions += 1;
        match rng.random_range(0..100u8) {
            // ~80 % browsing (home/search/product detail/best sellers).
            0..=79 => self.browse(rng)?,
            // ~10 % shopping cart.
            80..=89 => self.shopping_cart(rng, browser)?,
            // ~5 % buy confirm.
            90..=94 => self.buy_confirm(rng, browser)?,
            // ~3 % customer registration.
            95..=97 => self.register(rng)?,
            // ~2 % admin update.
            _ => self.admin_update(rng)?,
        }
        Ok(())
    }

    fn pick_item<R: Rng>(&self, rng: &mut R) -> u64 {
        self.rand.item_id(rng, self.scale.items)
    }

    fn browse<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        for _ in 0..rng.random_range(1..=5usize) {
            let _ = self.item.get(self.pick_item(rng))?;
        }
        if self.scale.customers > 0 && rng.random_range(0..2u8) == 0 {
            let c = rng.random_range(1..=self.scale.customers.max(1));
            let _ = self.customer.get(c);
        }
        Ok(())
    }

    fn shopping_cart<R: Rng>(&mut self, rng: &mut R, browser: usize) -> Result<(), StoreError> {
        let item = self.pick_item(rng);
        let _ = self.item.get(item)?;
        let cart = &mut self.carts[browser];
        if let Some(line) = cart.iter_mut().find(|l| l.item == item) {
            line.qty += 1;
        } else {
            cart.push(CartLine { item, qty: 1 });
        }
        if cart.len() > 8 {
            cart.remove(0);
        }
        Ok(())
    }

    fn buy_confirm<R: Rng>(&mut self, rng: &mut R, browser: usize) -> Result<(), StoreError> {
        if self.carts[browser].is_empty() {
            // Empty cart: grab something first (the EB would have).
            self.shopping_cart(rng, browser)?;
        }
        let lines = std::mem::take(&mut self.carts[browser]);
        let o_id = self.next_order;
        self.next_order += 1;
        let c_id = rng.random_range(1..=self.scale.customers.max(1));

        let mut subtotal = 0.0;
        for (n, line) in lines.iter().enumerate() {
            let mut item = self.item.get(line.item)?;
            let cost = match item.values()[5] {
                Value::F64(v) => v,
                _ => 0.0,
            };
            subtotal += cost * line.qty as f64;
            // Decrement stock, replenishing like the spec when low.
            let stock = item.values()[6].as_key();
            let new_stock = if stock >= line.qty + 10 {
                stock - line.qty
            } else {
                stock + 21 - line.qty
            };
            item.values_mut()[6] = Value::U64(new_stock);
            self.item.update(line.item, &item)?;

            self.order_line.insert(&Row::new(vec![
                Value::U64(n as u64 + 1),
                Value::U64(o_id),
                Value::U64(line.item),
                Value::U64(line.qty),
                Value::F64(rng.random_range(0..=10) as f64 / 100.0),
                Value::Str(a_string(rng, 20, 100)),
            ]))?;
        }
        let tax = subtotal * 0.0825;
        self.orders.insert(&Row::new(vec![
            Value::U64(o_id),
            Value::U64(c_id),
            Value::U64(self.clock),
            Value::F64(subtotal),
            Value::F64(tax),
            Value::F64(subtotal + tax + 3.0),
            Value::Str("AIR".into()),
            Value::U64(self.clock + 3),
            Value::Str("PENDING".into()),
        ]))?;
        self.cc_xacts.insert(&Row::new(vec![
            Value::U64(o_id),
            Value::Str("VISA".into()),
            Value::Str(n_string(rng, 16)),
            Value::Str(a_string(rng, 14, 30)),
            Value::Str(n_string(rng, 4)),
            Value::U64(rng.random_range(100_000..999_999)),
            Value::F64(subtotal + tax + 3.0),
            Value::U64(self.clock),
        ]))?;

        // Customer balance update.
        let mut customer = self.customer.get(c_id)?;
        if let Value::F64(balance) = customer.values()[10] {
            customer.values_mut()[10] = Value::F64(balance + subtotal + tax);
        }
        self.customer.update(c_id, &customer)?;
        Ok(())
    }

    fn register<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let c = self.next_customer;
        self.next_customer += 1;
        let row = customer_row(rng, c);
        self.customer.insert(c, &row)?;
        Ok(())
    }

    fn admin_update<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let i = self.pick_item(rng);
        let mut item = self.item.get(i)?;
        item.values_mut()[5] = Value::F64(rng.random_range(100..=10_000) as f64 / 100.0);
        let desc_len = rng.random_range(100..500);
        item.values_mut()[4] = Value::Str(prose(rng, desc_len));
        self.item.update(i, &item)?;
        Ok(())
    }
}

impl std::fmt::Debug for TpcwDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpcwDriver")
            .field("scale", &self.scale)
            .field("interactions", &self.interactions)
            .field("orders", &self.orders_placed())
            .finish()
    }
}

fn item_row<R: Rng>(rng: &mut R, i: u64) -> Row {
    Row::new(vec![
        Value::U64(i),
        Value::Str(a_string(rng, 14, 60)), // title
        Value::Str(format!(
            "{} {}",
            a_string(rng, 3, 10),
            TpccRand::last_name(rng.random_range(0..1000))
        )), // author
        Value::Str(a_string(rng, 4, 12)),  // subject
        Value::Str({
            let n = rng.random_range(100..500);
            prose(rng, n)
        }), // description
        Value::F64(rng.random_range(100..=10_000) as f64 / 100.0), // cost
        Value::U64(rng.random_range(10..=30)), // stock
        Value::Str(n_string(rng, 13)),     // isbn
        Value::F64(rng.random_range(100..=12_000) as f64 / 100.0), // srp
        Value::Str(format!("img/{}.gif", n_string(rng, 6))),
    ])
}

fn customer_row<R: Rng>(rng: &mut R, c: u64) -> Row {
    Row::new(vec![
        Value::U64(c),
        Value::Str(format!("user{c}")),
        Value::Str(a_string(rng, 8, 16)), // passwd
        Value::Str(a_string(rng, 8, 15)), // fname
        Value::Str(TpccRand::last_name(rng.random_range(0..1000))),
        Value::Str(a_string(rng, 10, 30)), // street
        Value::Str(a_string(rng, 4, 15)),  // city
        Value::Str(n_string(rng, 16)),     // phone
        Value::Str(format!("user{c}@example.org")),
        Value::U64(0),   // since
        Value::F64(0.0), // balance
        Value::Str({
            let n = rng.random_range(100..400);
            prose(rng, n)
        }), // data
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::count_writes;
    use prins_block::{BlockDevice, BlockSize, InstrumentedDevice, MemDevice};
    use rand::SeedableRng;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn driver() -> (
        TpcwDriver,
        Arc<InstrumentedDevice<MemDevice>>,
        rand::rngs::StdRng,
    ) {
        let device = Arc::new(InstrumentedDevice::new(MemDevice::new(
            BlockSize::kb8(),
            8192,
        )));
        let pool = BufferPool::new(Arc::clone(&device) as Arc<dyn BlockDevice>, 128);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let d = TpcwDriver::build(&pool, TpcwScale::tiny(), &mut rng).unwrap();
        (d, device, rng)
    }

    #[test]
    fn interactions_run_and_place_orders() {
        let (mut d, device, mut rng) = driver();
        let writes = count_writes(&device);
        d.run(&mut rng, 400).unwrap();
        assert_eq!(d.interactions(), 400);
        assert!(d.orders_placed() > 5, "orders: {}", d.orders_placed());
        assert!(writes.load(Ordering::Relaxed) > 10);
    }

    #[test]
    fn buy_confirm_moves_stock_and_inserts_rows() {
        let (mut d, _device, mut rng) = driver();
        // Force carts to fill then buy.
        for b in 0..4 {
            d.shopping_cart(&mut rng, b).unwrap();
            d.buy_confirm(&mut rng, b).unwrap();
        }
        assert_eq!(d.orders_placed(), 4);
        assert_eq!(d.orders.len(), 4);
        assert!(d.order_line.len() >= 4);
        assert_eq!(d.cc_xacts.len(), 4);
    }

    #[test]
    fn registration_grows_customer_table() {
        let (mut d, _device, mut rng) = driver();
        let before = d.customer.table.len();
        for _ in 0..5 {
            d.register(&mut rng).unwrap();
        }
        assert_eq!(d.customer.table.len(), before + 5);
    }

    #[test]
    fn browsing_is_read_only_at_device_level() {
        let (mut d, device, mut rng) = driver();
        let writes = count_writes(&device);
        for _ in 0..50 {
            d.browse(&mut rng).unwrap();
        }
        d.pool.flush_all().unwrap();
        // Buffer-pool reads happen, but nothing is dirtied.
        assert_eq!(writes.load(Ordering::Relaxed), 0);
    }
}
