//! The system catalog: tables, layouts, secondary indexes, stored procedures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use sqlcm_common::{DataType, Error, Result, Value};
use sqlcm_storage::{BTree, BufferPool, HeapFile};

use crate::procedure::StoredProcedure;

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnInfo {
    pub name: String,
    pub data_type: DataType,
    pub not_null: bool,
}

/// Physical row placement.
pub enum TableLayout {
    /// Rows live in a B-tree clustered on the primary-key columns (the layout the
    /// paper's workloads exercise: "single-row selections … that use a clustered
    /// index").
    Clustered { btree: BTree, key_cols: Vec<usize> },
    /// Rows live in an unordered heap (used for tables without a primary key,
    /// e.g. monitoring reporting tables that are append-only).
    Heap { heap: HeapFile },
}

/// A secondary index over a clustered table. The stored key is
/// `index columns ++ primary-key columns`, making every entry unique.
pub struct SecondaryIndex {
    pub name: String,
    pub key_cols: Vec<usize>,
    pub btree: BTree,
}

/// Catalog entry for one table.
pub struct TableInfo {
    pub id: u32,
    pub name: String,
    pub columns: Vec<ColumnInfo>,
    pub layout: TableLayout,
    pub indexes: RwLock<Vec<Arc<SecondaryIndex>>>,
    row_count: AtomicU64,
}

impl TableInfo {
    /// Index of a column by name (case-insensitive, matching the parser).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Optimizer cardinality estimate — exact here, since we maintain it.
    pub fn row_count(&self) -> u64 {
        self.row_count.load(Ordering::Relaxed)
    }

    pub(crate) fn add_rows(&self, n: i64) {
        if n >= 0 {
            self.row_count.fetch_add(n as u64, Ordering::Relaxed);
        } else {
            self.row_count.fetch_sub((-n) as u64, Ordering::Relaxed);
        }
    }

    /// The clustered key column indexes, if this table is clustered.
    pub fn clustered_key(&self) -> Option<&[usize]> {
        match &self.layout {
            TableLayout::Clustered { key_cols, .. } => Some(key_cols),
            TableLayout::Heap { .. } => None,
        }
    }

    /// Extract the clustered-key values from a full row.
    pub fn key_of(&self, row: &[Value]) -> Option<Vec<Value>> {
        self.clustered_key()
            .map(|cols| cols.iter().map(|&i| row[i].clone()).collect())
    }

    /// Check a row against the schema: arity, types (with lenient numeric
    /// coercion), and NOT NULL constraints. Returns the coerced row.
    pub fn check_row(&self, row: Vec<Value>) -> Result<Vec<Value>> {
        if row.len() != self.columns.len() {
            return Err(Error::Execution(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (v, col) in row.into_iter().zip(&self.columns) {
            if v.is_null() {
                if col.not_null {
                    return Err(Error::Execution(format!(
                        "NULL in NOT NULL column {}.{}",
                        self.name, col.name
                    )));
                }
                out.push(v);
                continue;
            }
            let coerced = v.cast(col.data_type).map_err(|_| {
                Error::TypeError(format!(
                    "value {v} does not fit column {}.{} of type {}",
                    self.name, col.name, col.data_type
                ))
            })?;
            out.push(coerced);
        }
        Ok(out)
    }
}

/// The catalog: all tables and procedures, plus the shared buffer pool handle
/// used when creating storage for new tables.
pub struct Catalog {
    pool: Arc<BufferPool>,
    tables: RwLock<HashMap<String, Arc<TableInfo>>>,
    procedures: RwLock<HashMap<String, Arc<StoredProcedure>>>,
    next_table_id: AtomicU32,
}

impl Catalog {
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Catalog {
            pool,
            tables: RwLock::new(HashMap::new()),
            procedures: RwLock::new(HashMap::new()),
            next_table_id: AtomicU32::new(1),
        }
    }

    /// The buffer pool every table's storage lives in.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Create a table. Non-empty `primary_key` ⇒ clustered B-tree layout.
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<ColumnInfo>,
        primary_key: &[String],
    ) -> Result<Arc<TableInfo>> {
        let mut tables = self.tables.write();
        if tables.contains_key(&Self::key(name)) {
            return Err(Error::Catalog(format!("table {name} already exists")));
        }
        if columns.is_empty() {
            return Err(Error::Catalog(format!("table {name} needs columns")));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(Error::Catalog(format!(
                    "duplicate column {} in table {name}",
                    c.name
                )));
            }
        }
        let key_cols: Vec<usize> = primary_key
            .iter()
            .map(|k| {
                columns
                    .iter()
                    .position(|c| c.name.eq_ignore_ascii_case(k))
                    .ok_or_else(|| {
                        Error::Catalog(format!("primary key column {k} not in table {name}"))
                    })
            })
            .collect::<Result<_>>()?;
        let layout = if key_cols.is_empty() {
            TableLayout::Heap {
                heap: HeapFile::new(self.pool.clone()),
            }
        } else {
            TableLayout::Clustered {
                btree: BTree::create(self.pool.clone())?,
                key_cols,
            }
        };
        let info = Arc::new(TableInfo {
            id: self.next_table_id.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            columns,
            layout,
            indexes: RwLock::new(Vec::new()),
            row_count: AtomicU64::new(0),
        });
        tables.insert(Self::key(name), info.clone());
        Ok(info)
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| Error::Catalog(format!("table {name} does not exist")))
    }

    pub fn table(&self, name: &str) -> Result<Arc<TableInfo>> {
        self.tables
            .read()
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("table {name} does not exist")))
    }

    /// Handles to every table — the iteration set for rules over the `Table`
    /// monitored class.
    pub fn tables(&self) -> Vec<Arc<TableInfo>> {
        self.tables.read().values().cloned().collect()
    }

    /// Create a secondary index on a *clustered* table and backfill it from the
    /// existing rows.
    pub fn create_index(&self, index_name: &str, table: &str, columns: &[String]) -> Result<()> {
        let t = self.table(table)?;
        let key_cols: Vec<usize> = columns
            .iter()
            .map(|k| {
                t.column_index(k)
                    .ok_or_else(|| Error::Catalog(format!("no column {k} in {table}")))
            })
            .collect::<Result<_>>()?;
        let (btree_rows, pk_cols) = match &t.layout {
            TableLayout::Clustered { btree, key_cols } => (
                btree.scan(&sqlcm_storage::btree::ScanBounds::all())?,
                key_cols.clone(),
            ),
            TableLayout::Heap { .. } => {
                return Err(Error::Catalog(
                    "secondary indexes require a clustered table".into(),
                ))
            }
        };
        {
            let indexes = t.indexes.read();
            if indexes
                .iter()
                .any(|i| i.name.eq_ignore_ascii_case(index_name))
            {
                return Err(Error::Catalog(format!("index {index_name} already exists")));
            }
        }
        let btree = BTree::create(self.pool.clone())?;
        for (_, rowbytes) in &btree_rows {
            let row = sqlcm_storage::decode_row(rowbytes)?;
            let mut key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
            key.extend(pk_cols.iter().map(|&i| row[i].clone()));
            btree.insert(&key, &[])?;
        }
        t.indexes.write().push(Arc::new(SecondaryIndex {
            name: index_name.to_string(),
            key_cols,
            btree,
        }));
        Ok(())
    }

    /// Register a stored procedure.
    pub fn create_procedure(&self, proc: StoredProcedure) -> Result<()> {
        let mut procs = self.procedures.write();
        let key = Self::key(&proc.name);
        if procs.contains_key(&key) {
            return Err(Error::Catalog(format!(
                "procedure {} already exists",
                proc.name
            )));
        }
        procs.insert(key, Arc::new(proc));
        Ok(())
    }

    pub fn procedure(&self, name: &str) -> Result<Arc<StoredProcedure>> {
        self.procedures
            .read()
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("procedure {name} does not exist")))
    }

    pub fn drop_procedure(&self, name: &str) -> Result<()> {
        self.procedures
            .write()
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| Error::Catalog(format!("procedure {name} does not exist")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlcm_storage::InMemoryDisk;

    fn catalog() -> Catalog {
        Catalog::new(Arc::new(BufferPool::new(InMemoryDisk::shared(), 128)))
    }

    fn cols() -> Vec<ColumnInfo> {
        vec![
            ColumnInfo {
                name: "id".into(),
                data_type: DataType::Int,
                not_null: true,
            },
            ColumnInfo {
                name: "name".into(),
                data_type: DataType::Text,
                not_null: false,
            },
        ]
    }

    #[test]
    fn create_lookup_drop() {
        let c = catalog();
        c.create_table("T", cols(), &["id".into()]).unwrap();
        assert!(c.table("t").is_ok(), "case-insensitive lookup");
        assert!(c.create_table("t", cols(), &[]).is_err(), "duplicate");
        c.drop_table("T").unwrap();
        assert!(c.table("t").is_err());
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn layout_choice() {
        let c = catalog();
        let t1 = c.create_table("clustered", cols(), &["id".into()]).unwrap();
        assert!(matches!(t1.layout, TableLayout::Clustered { .. }));
        assert_eq!(t1.clustered_key(), Some(&[0usize][..]));
        let t2 = c.create_table("heapy", cols(), &[]).unwrap();
        assert!(matches!(t2.layout, TableLayout::Heap { .. }));
        assert_eq!(t2.clustered_key(), None);
    }

    #[test]
    fn bad_definitions() {
        let c = catalog();
        assert!(c.create_table("t", vec![], &[]).is_err());
        assert!(c
            .create_table("t", cols(), &["nonexistent".into()])
            .is_err());
        let mut dup = cols();
        dup.push(ColumnInfo {
            name: "ID".into(),
            data_type: DataType::Int,
            not_null: false,
        });
        assert!(c.create_table("t", dup, &[]).is_err());
    }

    #[test]
    fn check_row_coercion_and_nulls() {
        let c = catalog();
        let t = c.create_table("t", cols(), &["id".into()]).unwrap();
        let ok = t.check_row(vec![Value::Float(3.0), Value::Null]).unwrap();
        assert_eq!(ok[0], Value::Int(3));
        assert!(
            t.check_row(vec![Value::Null, Value::Null]).is_err(),
            "pk null"
        );
        assert!(t.check_row(vec![Value::Int(1)]).is_err(), "arity");
        assert!(t.check_row(vec![Value::text("xx"), Value::Null]).is_err());
    }

    #[test]
    fn secondary_index_requires_clustered() {
        let c = catalog();
        c.create_table("h", cols(), &[]).unwrap();
        assert!(c.create_index("i", "h", &["name".into()]).is_err());
        c.create_table("ct", cols(), &["id".into()]).unwrap();
        c.create_index("i", "ct", &["name".into()]).unwrap();
        assert!(c.create_index("i", "ct", &["name".into()]).is_err());
    }

    #[test]
    fn procedures() {
        let c = catalog();
        let p = StoredProcedure {
            name: "getx".into(),
            params: vec!["a".into()],
            body: vec![],
        };
        c.create_procedure(p).unwrap();
        assert!(c.procedure("GETX").is_ok());
        assert!(c
            .create_procedure(StoredProcedure {
                name: "getx".into(),
                params: vec![],
                body: vec![],
            })
            .is_err());
        c.drop_procedure("getx").unwrap();
        assert!(c.procedure("getx").is_err());
    }
}
