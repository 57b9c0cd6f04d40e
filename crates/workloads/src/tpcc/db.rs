//! TPC-C schema, scaling and initial database population.

use std::collections::VecDeque;

use rand::Rng;

use prins_pagestore::{BTree, BufferPool, DbProfile, RecordId, Row, StoreError, Table, Value};

use crate::text::{a_string, data_string, n_string, TpccRand};

use super::keys;

/// Cardinalities for one TPC-C database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TpccScale {
    /// Number of warehouses (the TPC-C scale factor W).
    pub(crate) warehouses: u64,
    /// Districts per warehouse (spec: 10).
    pub(crate) districts: u64,
    /// Customers per district (spec: 3000).
    pub(crate) customers: u64,
    /// Items in the catalog (spec: 100 000).
    pub(crate) items: u64,
}

impl TpccScale {
    /// A laptop-scale configuration preserving the schema and access
    /// skew (used by benches; documented in EXPERIMENTS.md).
    pub(crate) fn bench() -> Self {
        Self {
            warehouses: 2,
            districts: 10,
            customers: 120,
            items: 2_000,
        }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            warehouses: 1,
            districts: 2,
            customers: 20,
            items: 100,
        }
    }
}

/// One table plus its primary-key B-tree.
pub(crate) struct Indexed {
    pub(crate) table: Table,
    pub(crate) index: BTree,
}

impl Indexed {
    pub(crate) fn create(pool: &BufferPool, profile: DbProfile) -> Result<Self, StoreError> {
        Ok(Self {
            table: Table::with_profile(pool, profile)?,
            index: BTree::create(pool)?,
        })
    }

    pub(crate) fn insert(&mut self, key: u64, row: &Row) -> Result<RecordId, StoreError> {
        let rid = self.table.insert(row)?;
        self.index.insert(key, rid)?;
        Ok(rid)
    }

    pub(crate) fn get(&self, key: u64) -> Result<Row, StoreError> {
        let rid = self
            .index
            .get(key)?
            .ok_or(StoreError::KeyNotFound { key })?;
        self.table.get(rid)
    }

    /// Updates the row at `key`, maintaining the index if the row
    /// migrated pages.
    pub(crate) fn update(&mut self, key: u64, row: &Row) -> Result<(), StoreError> {
        let rid = self
            .index
            .get(key)?
            .ok_or(StoreError::KeyNotFound { key })?;
        let new_rid = self.table.update(rid, row)?;
        if new_rid != rid {
            self.index.update(key, new_rid)?;
        }
        Ok(())
    }

    pub(crate) fn delete(&mut self, key: u64) -> Result<(), StoreError> {
        let rid = self
            .index
            .get(key)?
            .ok_or(StoreError::KeyNotFound { key })?;
        self.table.delete(rid)?;
        self.index.delete(key)
    }
}

/// The populated TPC-C database.
///
/// Construct with [`TpccDatabase::build`]; drive with
/// [`TpccDriver`](super::TpccDriver).
pub struct TpccDatabase {
    pub(crate) pool: BufferPool,
    pub(crate) scale: TpccScale,
    pub(crate) rand: TpccRand,
    pub(crate) warehouse: Indexed,
    pub(crate) district: Indexed,
    pub(crate) customer: Indexed,
    pub(crate) history: Table,
    pub(crate) order: Indexed,
    pub(crate) new_order: Indexed,
    pub(crate) order_line: Indexed,
    pub(crate) item: Indexed,
    pub(crate) stock: Indexed,
    /// Undelivered orders per district key (the NEW-ORDER queue).
    pub(crate) pending: std::collections::HashMap<u64, VecDeque<u64>>,
}

impl TpccDatabase {
    /// Creates and populates a database per `scale` on `pool`.
    ///
    /// # Errors
    ///
    /// Propagates storage failures (most commonly
    /// [`StoreError::DeviceFull`] when the device is sized too small for
    /// the scale).
    pub fn build<R: Rng>(
        pool: &BufferPool,
        profile: DbProfile,
        scale: TpccScale,
        rng: &mut R,
    ) -> Result<Self, StoreError> {
        let rand = TpccRand::new(rng);
        let mut db = Self {
            pool: pool.clone(),
            scale,
            rand,
            warehouse: Indexed::create(pool, profile)?,
            district: Indexed::create(pool, profile)?,
            customer: Indexed::create(pool, profile)?,
            history: Table::with_profile(pool, profile)?,
            order: Indexed::create(pool, profile)?,
            new_order: Indexed::create(pool, profile)?,
            order_line: Indexed::create(pool, profile)?,
            item: Indexed::create(pool, profile)?,
            stock: Indexed::create(pool, profile)?,
            pending: Default::default(),
        };
        db.load_items(rng)?;
        db.load_warehouses(rng)?;
        pool.flush_all()?;
        Ok(db)
    }

    fn load_items<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        for i in 1..=self.scale.items {
            let row = Row::new(vec![
                Value::U64(i),                                             // i_id
                Value::U64(rng.random_range(1..=10_000)),                  // i_im_id
                Value::Str(a_string(rng, 14, 24)),                         // i_name
                Value::F64(rng.random_range(100..=10_000) as f64 / 100.0), // i_price
                Value::Str(data_string(rng)),                              // i_data
            ]);
            self.item.insert(keys::wh(i), &row)?;
        }
        Ok(())
    }

    fn address<R: Rng>(rng: &mut R) -> [Value; 5] {
        [
            Value::Str(a_string(rng, 10, 20)),                // street_1
            Value::Str(a_string(rng, 10, 20)),                // street_2
            Value::Str(a_string(rng, 10, 20)),                // city
            Value::Str(a_string(rng, 2, 2)),                  // state
            Value::Str(format!("{}11111", n_string(rng, 4))), // zip
        ]
    }

    fn load_warehouses<R: Rng>(&mut self, rng: &mut R) -> Result<(), StoreError> {
        let scale = self.scale;
        for w in 1..=scale.warehouses {
            let mut values = vec![Value::U64(w), Value::Str(a_string(rng, 6, 10))];
            values.extend(Self::address(rng));
            values.push(Value::F64(rng.random_range(0..=2000) as f64 / 10_000.0)); // w_tax
            values.push(Value::F64(300_000.0)); // w_ytd
            self.warehouse.insert(keys::wh(w), &Row::new(values))?;

            for d in 1..=scale.districts {
                let mut values = vec![
                    Value::U64(d),
                    Value::U64(w),
                    Value::Str(a_string(rng, 6, 10)),
                ];
                values.extend(Self::address(rng));
                values.push(Value::F64(rng.random_range(0..=2000) as f64 / 10_000.0)); // d_tax
                values.push(Value::F64(30_000.0)); // d_ytd
                values.push(Value::U64(1)); // d_next_o_id
                self.district.insert(keys::dist(w, d), &Row::new(values))?;

                for c in 1..=scale.customers {
                    self.load_customer(rng, w, d, c)?;
                }
                self.pending.insert(keys::dist(w, d), VecDeque::new());
            }
            for i in 1..=scale.items {
                self.load_stock(rng, w, i)?;
            }
        }
        Ok(())
    }

    fn load_customer<R: Rng>(
        &mut self,
        rng: &mut R,
        w: u64,
        d: u64,
        c: u64,
    ) -> Result<(), StoreError> {
        let last = if c <= 1000 {
            TpccRand::last_name(c - 1)
        } else {
            TpccRand::last_name(self.rand.nurand(rng, 255, 0, 999))
        };
        let credit = if rng.random_range(0..10u8) == 0 {
            "BC"
        } else {
            "GC"
        };
        let mut values = vec![
            Value::U64(c),
            Value::U64(d),
            Value::U64(w),
            Value::Str(a_string(rng, 8, 16)), // first
            Value::Str("OE".into()),          // middle
            Value::Str(last),
        ];
        values.extend(Self::address(rng));
        values.extend([
            Value::Str(n_string(rng, 16)),                            // phone
            Value::U64(0),                                            // since (txn clock)
            Value::Str(credit.into()),                                // credit
            Value::F64(50_000.0),                                     // credit_lim
            Value::F64(rng.random_range(0..=5000) as f64 / 10_000.0), // discount
            Value::F64(-10.0),                                        // balance
            Value::F64(10.0),                                         // ytd_payment
            Value::U64(1),                                            // payment_cnt
            Value::U64(0),                                            // delivery_cnt
            Value::Str(a_string(rng, 300, 500)),                      // c_data
        ]);
        self.customer
            .insert(keys::cust(w, d, c), &Row::new(values))?;
        Ok(())
    }

    fn load_stock<R: Rng>(&mut self, rng: &mut R, w: u64, i: u64) -> Result<(), StoreError> {
        let mut values = vec![
            Value::U64(i),
            Value::U64(w),
            Value::U64(rng.random_range(10..=100)), // s_quantity
        ];
        for _ in 0..10 {
            values.push(Value::Str(a_string(rng, 24, 24))); // s_dist_XX
        }
        values.extend([
            Value::U64(0),                // s_ytd
            Value::U64(0),                // s_order_cnt
            Value::U64(0),                // s_remote_cnt
            Value::Str(data_string(rng)), // s_data
        ]);
        self.stock.insert(keys::stock(w, i), &Row::new(values))?;
        Ok(())
    }
}

impl std::fmt::Debug for TpccDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpccDatabase")
            .field("scale", &self.scale)
            .field("customers", &self.customer.table.len())
            .field("items", &self.item.table.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn build_tiny() -> TpccDatabase {
        let pool = BufferPool::new(Arc::new(MemDevice::new(BlockSize::kb8(), 4096)), 256);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        TpccDatabase::build(&pool, DbProfile::oracle(), TpccScale::tiny(), &mut rng).unwrap()
    }

    #[test]
    fn load_populates_all_cardinalities() {
        let db = build_tiny();
        let s = db.scale;
        assert_eq!(db.warehouse.table.len(), s.warehouses);
        assert_eq!(db.district.table.len(), s.warehouses * s.districts);
        assert_eq!(
            db.customer.table.len(),
            s.warehouses * s.districts * s.customers
        );
        assert_eq!(db.item.table.len(), s.items);
        assert_eq!(db.stock.table.len(), s.warehouses * s.items);
    }

    #[test]
    fn rows_resolve_through_indexes() {
        let db = build_tiny();
        let cust = db.customer.get(keys::cust(1, 1, 5)).unwrap();
        assert_eq!(cust.values()[0], Value::U64(5));
        assert_eq!(cust.values()[1], Value::U64(1));
        let item = db.item.get(42).unwrap();
        assert_eq!(item.values()[0], Value::U64(42));
        let district = db.district.get(keys::dist(1, 2)).unwrap();
        assert_eq!(district.values()[0], Value::U64(2));
        // d_next_o_id starts at 1.
        assert_eq!(district.values()[10], Value::U64(1));
    }

    #[test]
    fn indexed_update_maintains_index_across_migration() {
        let pool = BufferPool::new(
            Arc::new(MemDevice::new(BlockSize::new(512).unwrap(), 2048)),
            64,
        );
        let mut ix = Indexed::create(&pool, DbProfile::oracle()).unwrap();
        let mut rids = Vec::new();
        for k in 0..6u64 {
            rids.push(
                ix.insert(k, &Row::new(vec![Value::U64(k), Value::Str("aa".into())]))
                    .unwrap(),
            );
        }
        // Grow row 0 so it migrates off its 512-byte page.
        let big = Row::new(vec![Value::U64(0), Value::Str("B".repeat(300))]);
        ix.update(0, &big).unwrap();
        let back = ix.get(0).unwrap();
        assert_eq!(back.values()[1], Value::Str("B".repeat(300)));
    }
}
