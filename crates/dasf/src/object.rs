//! The object table: a tree of groups and datasets with attributes.
//!
//! The whole table serializes into the file footer; `File::open` reads
//! only the superblock and this table, so metadata-only operations (the
//! backbone of VCA construction and `das_search`) never touch array data.

use crate::codec::{self, Codec};
use crate::error::DasfError;
use crate::value::{check_len, get_f64, get_string, get_u32, get_u64, get_u8, put_string, Value};
use crate::{Dtype, Result, Version, VERIFY_CHUNK_BYTES};
use std::collections::BTreeMap;

/// Per-verify-unit codec record of a v4 compressed dataset: how unit
/// `i` is stored on disk. `raw_len` is the decoded payload size of the
/// unit; `stored_len` is its on-disk size; the unit's CRC32C (in
/// [`DatasetMeta::checksums`]) covers the stored bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitHeader {
    /// Codec this unit was actually stored with (`Raw` when the
    /// requested codec did not shrink this particular unit).
    pub codec: Codec,
    /// Decoded (raw payload) length in bytes.
    pub raw_len: u32,
    /// On-disk (stored) length in bytes.
    pub stored_len: u32,
}

/// Metadata of one stored dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Element type.
    pub dtype: Dtype,
    /// Extent per dimension, row-major.
    pub dims: Vec<u64>,
    /// Byte offset of the payload within the file (contiguous layout;
    /// for chunked layout, offset of the first chunk).
    pub data_offset: u64,
    /// Storage layout.
    pub layout: Layout,
    /// Attributes attached to the dataset.
    pub attrs: BTreeMap<String, Value>,
    /// CRC32C per verify unit: [`VERIFY_CHUNK_BYTES`]-sized slices of
    /// the payload for contiguous layout, one per storage chunk for
    /// chunked layout. Empty for datasets read from v2 files, which
    /// carry no checksums and are never verified. On compressed v4
    /// datasets each CRC covers the **stored** bytes of its unit.
    pub checksums: Vec<u32>,
    /// Per-unit codec headers (v4 only). Empty means the dataset is
    /// stored uncompressed, byte-identical to the v3 layout; non-empty
    /// means unit `i` occupies `stored_units[i].stored_len` bytes on
    /// disk and decodes to `stored_units[i].raw_len` payload bytes.
    pub stored_units: Vec<UnitHeader>,
}

/// Dataset storage layout, mirroring HDF5's contiguous vs chunked
/// distinction.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Layout {
    /// One row-major run of elements at `data_offset`.
    #[default]
    Contiguous,
    /// A grid of fixed-size chunks, each stored as its own row-major
    /// run. `chunk_offsets[i]` is the file offset of the i-th chunk in
    /// row-major chunk-grid order.
    Chunked {
        /// Chunk extent per dimension.
        chunk_dims: Vec<u64>,
        /// File offset of each chunk.
        chunk_offsets: Vec<u64>,
    },
}

impl DatasetMeta {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product::<u64>() as usize
    }

    /// True when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> u64 {
        self.len() as u64 * self.dtype.size() as u64
    }

    /// Number of verify units this dataset's checksum vector must have.
    pub fn verify_unit_count(&self) -> usize {
        match &self.layout {
            Layout::Contiguous => self.byte_len().div_ceil(VERIFY_CHUNK_BYTES) as usize,
            Layout::Chunked { chunk_offsets, .. } => chunk_offsets.len(),
        }
    }

    /// Clipped element count of storage chunk `flat` (row-major
    /// chunk-grid order). Zero for contiguous layout or out-of-range
    /// indices.
    pub fn chunk_elems(&self, flat: usize) -> u64 {
        let Layout::Chunked { chunk_dims, .. } = &self.layout else {
            return 0;
        };
        let grid: Vec<u64> = self
            .dims
            .iter()
            .zip(chunk_dims)
            .map(|(&d, &c)| d.div_ceil(c.max(1)))
            .collect();
        if grid.iter().product::<u64>() <= flat as u64 {
            return 0;
        }
        // Decompose `flat` into per-dimension grid coordinates.
        let mut rem = flat as u64;
        let mut elems = 1u64;
        for d in (0..grid.len()).rev() {
            let g = rem % grid[d];
            rem /= grid[d];
            let start = g * chunk_dims[d];
            elems *= chunk_dims[d].min(self.dims[d] - start);
        }
        elems
    }

    /// Byte range `(offset, len)` of verify unit `unit`, relative to the
    /// start of this dataset's contiguous payload.
    pub fn unit_range(&self, unit: usize) -> (u64, u64) {
        let start = unit as u64 * VERIFY_CHUNK_BYTES;
        (start, VERIFY_CHUNK_BYTES.min(self.byte_len() - start))
    }

    /// True when this dataset carries per-unit codec headers, i.e. its
    /// on-disk bytes go through a decode stage.
    pub fn is_compressed(&self) -> bool {
        !self.stored_units.is_empty()
    }

    /// The codec this dataset was written with: the first non-`Raw`
    /// unit codec, or `Raw` for uncompressed datasets (and compressed
    /// datasets where every unit fell back to raw storage).
    pub fn codec(&self) -> Codec {
        self.stored_units
            .iter()
            .map(|u| u.codec)
            .find(|c| *c != Codec::Raw)
            .unwrap_or(Codec::Raw)
    }

    /// On-disk payload size in bytes: the sum of stored unit lengths
    /// for compressed datasets, [`DatasetMeta::byte_len`] otherwise.
    pub fn stored_byte_len(&self) -> u64 {
        if self.stored_units.is_empty() {
            self.byte_len()
        } else {
            self.stored_units.iter().map(|u| u.stored_len as u64).sum()
        }
    }
}

/// A node in the object tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An interior group with attributes and named children.
    Group {
        attrs: BTreeMap<String, Value>,
        children: BTreeMap<String, Node>,
    },
    /// A leaf dataset.
    Dataset(DatasetMeta),
}

impl Node {
    /// An empty group.
    pub fn empty_group() -> Node {
        Node::Group {
            attrs: BTreeMap::new(),
            children: BTreeMap::new(),
        }
    }

    fn attrs(&self) -> &BTreeMap<String, Value> {
        match self {
            Node::Group { attrs, .. } => attrs,
            Node::Dataset(d) => &d.attrs,
        }
    }

    fn attrs_mut(&mut self) -> &mut BTreeMap<String, Value> {
        match self {
            Node::Group { attrs, .. } => attrs,
            Node::Dataset(d) => &mut d.attrs,
        }
    }
}

/// The full object tree of a file, rooted at `/`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectTable {
    root: Node,
}

/// Split `/a/b/c` into components, rejecting empty segments.
fn split_path(path: &str) -> Result<Vec<&str>> {
    let trimmed = path.trim_start_matches('/').trim_end_matches('/');
    if trimmed.is_empty() {
        return Ok(Vec::new());
    }
    let parts: Vec<&str> = trimmed.split('/').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(DasfError::NoSuchObject(format!("malformed path: {path}")));
    }
    Ok(parts)
}

impl Default for ObjectTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectTable {
    /// A table containing only the empty root group.
    pub fn new() -> Self {
        ObjectTable {
            root: Node::empty_group(),
        }
    }

    /// Look up the node at `path` (`"/"` is the root).
    pub fn get(&self, path: &str) -> Result<&Node> {
        let mut node = &self.root;
        for part in split_path(path)? {
            match node {
                Node::Group { children, .. } => {
                    node = children
                        .get(part)
                        .ok_or_else(|| DasfError::NoSuchObject(path.to_string()))?;
                }
                Node::Dataset(_) => return Err(DasfError::NoSuchObject(path.to_string())),
            }
        }
        Ok(node)
    }

    fn get_mut(&mut self, path: &str) -> Result<&mut Node> {
        let mut node = &mut self.root;
        for part in split_path(path)? {
            match node {
                Node::Group { children, .. } => {
                    node = children
                        .get_mut(part)
                        .ok_or_else(|| DasfError::NoSuchObject(path.to_string()))?;
                }
                Node::Dataset(_) => return Err(DasfError::NoSuchObject(path.to_string())),
            }
        }
        Ok(node)
    }

    /// Dataset metadata at `path`.
    pub fn dataset(&self, path: &str) -> Result<&DatasetMeta> {
        match self.get(path)? {
            Node::Dataset(d) => Ok(d),
            Node::Group { .. } => Err(DasfError::WrongKind(path.to_string())),
        }
    }

    /// Mutable dataset metadata at `path` — for tools and tests that
    /// rewrite a table; the reader validates whatever it is handed.
    pub fn dataset_mut(&mut self, path: &str) -> Result<&mut DatasetMeta> {
        match self.get_mut(path)? {
            Node::Dataset(d) => Ok(d),
            Node::Group { .. } => Err(DasfError::WrongKind(path.to_string())),
        }
    }

    /// All attributes of the object at `path`.
    pub fn attrs(&self, path: &str) -> Result<&BTreeMap<String, Value>> {
        Ok(self.get(path)?.attrs())
    }

    /// One attribute, or `None`.
    pub fn attr(&self, path: &str, key: &str) -> Option<&Value> {
        self.get(path).ok().and_then(|n| n.attrs().get(key))
    }

    /// Set an attribute on an existing object.
    pub fn set_attr(&mut self, path: &str, key: &str, value: Value) -> Result<()> {
        self.get_mut(path)?
            .attrs_mut()
            .insert(key.to_string(), value);
        Ok(())
    }

    /// Create an (empty) group; parents must already exist.
    pub fn create_group(&mut self, path: &str) -> Result<()> {
        let parts = split_path(path)?;
        let (name, parent_parts) = match parts.split_last() {
            Some((n, p)) => (*n, p),
            None => return Err(DasfError::AlreadyExists("/".to_string())),
        };
        let parent = self.get_mut_by_parts(parent_parts, path)?;
        match parent {
            Node::Group { children, .. } => {
                if children.contains_key(name) {
                    return Err(DasfError::AlreadyExists(path.to_string()));
                }
                children.insert(name.to_string(), Node::empty_group());
                Ok(())
            }
            Node::Dataset(_) => Err(DasfError::WrongKind(path.to_string())),
        }
    }

    /// Insert a dataset; parents must already exist.
    pub fn insert_dataset(&mut self, path: &str, meta: DatasetMeta) -> Result<()> {
        let parts = split_path(path)?;
        let (name, parent_parts) = parts
            .split_last()
            .map(|(n, p)| (*n, p))
            .ok_or_else(|| DasfError::WrongKind("/".to_string()))?;
        let parent = self.get_mut_by_parts(parent_parts, path)?;
        match parent {
            Node::Group { children, .. } => {
                if children.contains_key(name) {
                    return Err(DasfError::AlreadyExists(path.to_string()));
                }
                children.insert(name.to_string(), Node::Dataset(meta));
                Ok(())
            }
            Node::Dataset(_) => Err(DasfError::WrongKind(path.to_string())),
        }
    }

    fn get_mut_by_parts(&mut self, parts: &[&str], full: &str) -> Result<&mut Node> {
        let mut node = &mut self.root;
        for part in parts {
            match node {
                Node::Group { children, .. } => {
                    node = children
                        .get_mut(*part)
                        .ok_or_else(|| DasfError::NoSuchObject(full.to_string()))?;
                }
                Node::Dataset(_) => return Err(DasfError::NoSuchObject(full.to_string())),
            }
        }
        Ok(node)
    }

    /// Depth-first listing of all dataset paths.
    pub fn dataset_paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(node: &Node, prefix: &str, out: &mut Vec<String>) {
            if let Node::Group { children, .. } = node {
                for (name, child) in children {
                    let path = format!("{prefix}/{name}");
                    match child {
                        Node::Dataset(_) => out.push(path),
                        Node::Group { .. } => walk(child, &path, out),
                    }
                }
            }
        }
        walk(&self.root, "", &mut out);
        out
    }

    // ---- serialization -------------------------------------------------

    /// Serialize the whole tree in the current (v4) layout.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_versioned(Version::V4)
    }

    /// Serialize the whole tree in a specific format version. V3 drops
    /// the per-unit codec headers and V2 additionally drops the
    /// checksum vectors (their node layouts have no slot for them);
    /// they exist for fixtures and compatibility tests.
    pub fn encode_versioned(&self, version: Version) -> Vec<u8> {
        let mut out = Vec::new();
        encode_node(&self.root, &mut out, version);
        out
    }

    /// Deserialize a tree; must consume `bytes` exactly.
    pub fn decode(bytes: &[u8], version: Version) -> Result<Self> {
        let mut slice = bytes;
        let root = decode_node(&mut slice, version)?;
        if !slice.is_empty() {
            return Err(DasfError::Corrupt(
                "trailing bytes after object table".into(),
            ));
        }
        match root {
            Node::Group { .. } => Ok(ObjectTable { root }),
            Node::Dataset(_) => Err(DasfError::Corrupt("root must be a group".into())),
        }
    }
}

const NODE_GROUP: u8 = 1;
const NODE_DATASET: u8 = 2;
const LAYOUT_CONTIGUOUS: u8 = 1;
const LAYOUT_CHUNKED: u8 = 2;

fn encode_attrs(attrs: &BTreeMap<String, Value>, out: &mut Vec<u8>) {
    out.extend((attrs.len() as u32).to_le_bytes());
    for (k, v) in attrs {
        put_string(out, k);
        v.encode(out);
    }
}

fn decode_attrs(buf: &mut &[u8]) -> Result<BTreeMap<String, Value>> {
    check_len(buf, 4)?;
    let n = get_u32(buf) as usize;
    let mut attrs = BTreeMap::new();
    for _ in 0..n {
        let k = get_string(buf)?;
        let v = Value::decode(buf)?;
        attrs.insert(k, v);
    }
    Ok(attrs)
}

fn encode_node(node: &Node, out: &mut Vec<u8>, version: Version) {
    match node {
        Node::Group { attrs, children } => {
            out.push(NODE_GROUP);
            encode_attrs(attrs, out);
            out.extend((children.len() as u32).to_le_bytes());
            for (name, child) in children {
                put_string(out, name);
                encode_node(child, out, version);
            }
        }
        Node::Dataset(d) => {
            out.push(NODE_DATASET);
            out.push(d.dtype as u8);
            out.extend((d.dims.len() as u32).to_le_bytes());
            for &dim in &d.dims {
                out.extend(dim.to_le_bytes());
            }
            out.extend(d.data_offset.to_le_bytes());
            match &d.layout {
                Layout::Contiguous => out.push(LAYOUT_CONTIGUOUS),
                Layout::Chunked {
                    chunk_dims,
                    chunk_offsets,
                } => {
                    out.push(LAYOUT_CHUNKED);
                    out.extend((chunk_dims.len() as u32).to_le_bytes());
                    for &cd in chunk_dims {
                        out.extend(cd.to_le_bytes());
                    }
                    out.extend((chunk_offsets.len() as u32).to_le_bytes());
                    for &co in chunk_offsets {
                        out.extend(co.to_le_bytes());
                    }
                }
            }
            if version != Version::V2 {
                out.extend((d.checksums.len() as u32).to_le_bytes());
                for &c in &d.checksums {
                    out.extend(c.to_le_bytes());
                }
            }
            if version == Version::V4 {
                out.extend((d.stored_units.len() as u32).to_le_bytes());
                for u in &d.stored_units {
                    out.push(u.codec.tag());
                    if let Codec::Quant { bound } = u.codec {
                        out.extend(bound.to_le_bytes());
                    }
                    out.extend(u.raw_len.to_le_bytes());
                    out.extend(u.stored_len.to_le_bytes());
                }
            }
            encode_attrs(&d.attrs, out);
        }
    }
}

fn decode_node(buf: &mut &[u8], version: Version) -> Result<Node> {
    check_len(buf, 1)?;
    match get_u8(buf) {
        NODE_GROUP => {
            let attrs = decode_attrs(buf)?;
            check_len(buf, 4)?;
            let n = get_u32(buf) as usize;
            let mut children = BTreeMap::new();
            for _ in 0..n {
                let name = get_string(buf)?;
                let child = decode_node(buf, version)?;
                children.insert(name, child);
            }
            Ok(Node::Group { attrs, children })
        }
        NODE_DATASET => {
            check_len(buf, 1 + 4)?;
            let code = get_u8(buf);
            let dtype = Dtype::from_code(code)
                .ok_or_else(|| DasfError::Corrupt(format!("unknown dtype code {code}")))?;
            let ndim = get_u32(buf) as usize;
            if ndim > 32 {
                return Err(DasfError::Corrupt(format!("absurd rank {ndim}")));
            }
            check_len(buf, ndim * 8 + 8 + 1)?;
            let dims = (0..ndim).map(|_| get_u64(buf)).collect();
            let data_offset = get_u64(buf);
            let layout = match get_u8(buf) {
                LAYOUT_CONTIGUOUS => Layout::Contiguous,
                LAYOUT_CHUNKED => {
                    check_len(buf, 4)?;
                    let ncd = get_u32(buf) as usize;
                    if ncd > 32 {
                        return Err(DasfError::Corrupt(format!("absurd chunk rank {ncd}")));
                    }
                    check_len(buf, ncd * 8 + 4)?;
                    let chunk_dims: Vec<u64> = (0..ncd).map(|_| get_u64(buf)).collect();
                    let nco = get_u32(buf) as usize;
                    check_len(buf, nco * 8)?;
                    let chunk_offsets = (0..nco).map(|_| get_u64(buf)).collect();
                    Layout::Chunked {
                        chunk_dims,
                        chunk_offsets,
                    }
                }
                other => return Err(DasfError::Corrupt(format!("unknown layout tag {other}"))),
            };
            let checksums: Vec<u32> = if version != Version::V2 {
                check_len(buf, 4)?;
                let n = get_u32(buf) as usize;
                check_len(buf, n * 4)?;
                (0..n).map(|_| get_u32(buf)).collect()
            } else {
                Vec::new()
            };
            let stored_units = if version == Version::V4 {
                check_len(buf, 4)?;
                let n = get_u32(buf) as usize;
                if n > checksums.len() {
                    return Err(DasfError::Corrupt(format!(
                        "{n} unit headers for {} checksums",
                        checksums.len()
                    )));
                }
                let mut units = Vec::with_capacity(n);
                for _ in 0..n {
                    check_len(buf, 1)?;
                    let codec = match get_u8(buf) {
                        codec::TAG_RAW => Codec::Raw,
                        codec::TAG_SHUFFLE_LZ => Codec::ShuffleLz,
                        codec::TAG_QUANT => {
                            check_len(buf, 8)?;
                            let bound = get_f64(buf);
                            if !(bound.is_finite() && bound > 0.0) {
                                return Err(DasfError::Corrupt(format!("bad quant bound {bound}")));
                            }
                            Codec::Quant { bound }
                        }
                        other => {
                            return Err(DasfError::Corrupt(format!("unknown codec tag {other}")))
                        }
                    };
                    check_len(buf, 8)?;
                    units.push(UnitHeader {
                        codec,
                        raw_len: get_u32(buf),
                        stored_len: get_u32(buf),
                    });
                }
                units
            } else {
                Vec::new()
            };
            let attrs = decode_attrs(buf)?;
            Ok(Node::Dataset(DatasetMeta {
                dtype,
                dims,
                data_offset,
                layout,
                attrs,
                checksums,
                stored_units,
            }))
        }
        other => Err(DasfError::Corrupt(format!("unknown node tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> ObjectTable {
        let mut t = ObjectTable::new();
        t.set_attr("/", "SamplingFrequency(HZ)", Value::Int(500))
            .unwrap();
        t.create_group("/Measurement").unwrap();
        t.set_attr("/Measurement", "note", Value::Str("west sac".into()))
            .unwrap();
        t.insert_dataset(
            "/Measurement/data",
            DatasetMeta {
                dtype: Dtype::F32,
                dims: vec![4, 6],
                data_offset: 16,
                layout: Layout::Contiguous,
                attrs: BTreeMap::new(),
                checksums: vec![0xDEAD_BEEF],
                stored_units: Vec::new(),
            },
        )
        .unwrap();
        t
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample_table();
        let bytes = t.encode();
        let back = ObjectTable::decode(&bytes, Version::V4).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn unit_headers_round_trip_in_v4_only() {
        let mut t = sample_table();
        t.insert_dataset(
            "/Measurement/packed",
            DatasetMeta {
                dtype: Dtype::F32,
                dims: vec![2, 3],
                data_offset: 200,
                layout: Layout::Contiguous,
                attrs: BTreeMap::new(),
                checksums: vec![7],
                stored_units: vec![UnitHeader {
                    codec: Codec::Quant { bound: 0.25 },
                    raw_len: 24,
                    stored_len: 9,
                }],
            },
        )
        .unwrap();
        let back = ObjectTable::decode(&t.encode(), Version::V4).unwrap();
        assert_eq!(back, t);
        let d = back.dataset("/Measurement/packed").unwrap();
        assert!(d.is_compressed());
        assert_eq!(d.codec(), Codec::Quant { bound: 0.25 });
        assert_eq!(d.stored_byte_len(), 9);
        // A v3 encoding has no slot for unit headers: the table encodes
        // and decodes, but the headers are gone.
        let v3 = ObjectTable::decode(&t.encode_versioned(Version::V3), Version::V3).unwrap();
        assert!(!v3.dataset("/Measurement/packed").unwrap().is_compressed());
    }

    #[test]
    fn v2_encoding_round_trips_without_checksums() {
        let t = sample_table();
        let bytes = t.encode_versioned(Version::V2);
        let back = ObjectTable::decode(&bytes, Version::V2).unwrap();
        // Identical except the checksum vector, which v2 cannot carry.
        let mut expect = t.clone();
        if let Node::Group { children, .. } = &mut expect.root {
            if let Some(Node::Group { children, .. }) = children.get_mut("Measurement") {
                if let Some(Node::Dataset(d)) = children.get_mut("data") {
                    d.checksums.clear();
                }
            }
        }
        assert_eq!(back, expect);
        // And the v2 bytes are strictly smaller (no checksum slot).
        assert!(bytes.len() < t.encode().len());
    }

    #[test]
    fn path_lookup() {
        let t = sample_table();
        assert!(t.get("/").is_ok());
        assert!(t.get("/Measurement").is_ok());
        assert!(t.dataset("/Measurement/data").is_ok());
        assert!(matches!(
            t.dataset("/Measurement"),
            Err(DasfError::WrongKind(_))
        ));
        assert!(matches!(t.get("/nope"), Err(DasfError::NoSuchObject(_))));
        assert!(matches!(
            t.get("/Measurement/data/deeper"),
            Err(DasfError::NoSuchObject(_))
        ));
    }

    #[test]
    fn trailing_slashes_tolerated() {
        let t = sample_table();
        assert!(t.get("/Measurement/").is_ok());
        assert!(t.get("Measurement").is_ok());
    }

    #[test]
    fn duplicate_creation_rejected() {
        let mut t = sample_table();
        assert!(matches!(
            t.create_group("/Measurement"),
            Err(DasfError::AlreadyExists(_))
        ));
        let meta = t.dataset("/Measurement/data").unwrap().clone();
        assert!(matches!(
            t.insert_dataset("/Measurement/data", meta),
            Err(DasfError::AlreadyExists(_))
        ));
    }

    #[test]
    fn dataset_paths_listing() {
        let mut t = sample_table();
        t.create_group("/aux").unwrap();
        t.insert_dataset(
            "/aux/extra",
            DatasetMeta {
                dtype: Dtype::I64,
                dims: vec![3],
                data_offset: 999,
                layout: Layout::Chunked {
                    chunk_dims: vec![2],
                    chunk_offsets: vec![999, 1015],
                },
                attrs: BTreeMap::new(),
                checksums: vec![1, 2],
                stored_units: Vec::new(),
            },
        )
        .unwrap();
        let mut paths = t.dataset_paths();
        paths.sort();
        assert_eq!(paths, vec!["/Measurement/data", "/aux/extra"]);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        for v in [Version::V2, Version::V3, Version::V4] {
            assert!(ObjectTable::decode(&[], v).is_err());
            assert!(ObjectTable::decode(&[77], v).is_err());
        }
        let mut bytes = sample_table().encode();
        bytes.push(0); // trailing garbage
        assert!(ObjectTable::decode(&bytes, Version::V4).is_err());
    }

    #[test]
    fn dataset_meta_len() {
        let m = DatasetMeta {
            dtype: Dtype::F64,
            dims: vec![10, 20],
            data_offset: 0,
            layout: Layout::Contiguous,
            attrs: BTreeMap::new(),
            checksums: Vec::new(),
            stored_units: Vec::new(),
        };
        assert_eq!(m.len(), 200);
        assert_eq!(m.byte_len(), 1600);
        assert!(!m.is_empty());
    }
}
