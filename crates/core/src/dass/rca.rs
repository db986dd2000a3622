//! The Really Concatenated Array: physically merge DAS files into one.
//!
//! The paper's Table I / Figure 6 comparison point: RCA doubles storage
//! during construction and must move every byte, but yields a single
//! large file that parallel I/O handles well. DASSA supports it mainly
//! as a baseline; VCA is the recommended path. Construction is serial:
//! no workload budgets an RCA build, so a parallel build (the
//! parallel-HDF5 concatenation study) would start from [`create_rca`].

use super::metadata::{write_das_file, DasFileMeta};
use super::plan::{IoExecutor, IoPlan};
use super::search::FileEntry;
use super::vca::Vca;
use crate::Result;
use arrayudf::Array2;
use dasf::File;
use std::path::Path;

/// Physically concatenate `entries` into a single DAS file at `out`.
///
/// Reads every member's full data (this is what makes RCA construction
/// ~70,000× slower than VCA construction in the paper's Figure 6) and
/// writes one merged `channel × (Σ samples)` dataset carrying the first
/// member's acquisition metadata.
///
/// Returns the merged file's metadata.
pub fn create_rca(entries: &[FileEntry], out: &Path) -> Result<DasFileMeta> {
    let vca = Vca::from_entries(entries)?;
    let data = vca.read_all_f32()?;
    let meta = vca.merged_meta();
    write_das_file(out, &meta, &data)?;
    Ok(meta)
}

/// Read a previously created RCA back as `(metadata, data)`: a
/// single-op whole-file plan run by the serial executor.
pub fn read_rca(path: &Path) -> Result<(DasFileMeta, Array2<f32>)> {
    let meta = {
        let f = File::open(path)?;
        DasFileMeta::from_file(&f)?
    };
    let plan = IoPlan::for_file(path, &meta);
    let (data, _) = IoExecutor::serial().run(&plan)?;
    Ok((meta, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::make_files;
    use crate::dass::FileCatalog;

    #[test]
    fn rca_equals_vca_read() {
        let dir = make_files("rca-eq", "170728224510", 3, 4, 30);
        let cat = FileCatalog::scan(&dir).unwrap();
        let vca = Vca::from_entries(cat.entries()).unwrap();

        let out = dir.join("merged.rca.dasf");
        let meta = create_rca(cat.entries(), &out).unwrap();
        assert_eq!(meta.channels, 4);
        assert_eq!(meta.samples, 90);

        let (meta2, data) = read_rca(&out).unwrap();
        assert_eq!(meta2, meta);
        assert_eq!(data, vca.read_all_f32().unwrap());
    }

    #[test]
    fn rca_takes_first_timestamp() {
        let dir = make_files("rca-ts", "170728224510", 2, 2, 30);
        let cat = FileCatalog::scan(&dir).unwrap();
        let out = dir.join("merged.rca.dasf");
        let meta = create_rca(cat.entries(), &out).unwrap();
        assert_eq!(meta.timestamp.to_compact(), "170728224510");
    }

    #[test]
    fn rca_output_is_checksummed_and_verifies_clean() {
        // The RCA writer goes through dasf::Writer, so the merged file
        // inherits the v3 integrity layer: a full scrub passes, and a
        // flipped byte in the merged payload is detected.
        let dir = make_files("rca-verify", "170728224510", 3, 4, 30);
        let cat = FileCatalog::scan(&dir).unwrap();
        let out = dir.join("merged.rca.dasf");
        create_rca(cat.entries(), &out).unwrap();

        let f = File::open(&out).unwrap();
        assert_eq!(f.version(), dasf::Version::V4);
        let v = f.verify_all().unwrap();
        assert!(v.is_clean());
        assert_eq!(v.unverified_datasets, 0);
        drop(f);

        let mut bytes = std::fs::read(&out).unwrap();
        bytes[30] ^= 0x10; // inside the merged payload
        std::fs::write(&out, &bytes).unwrap();
        assert!(matches!(
            read_rca(&out),
            Err(crate::DassaError::Dasf(
                dasf::DasfError::ChecksumMismatch { .. }
            ))
        ));
    }

    #[test]
    fn failed_rca_write_leaves_no_partial_file() {
        // Crash-consistency inherited from dasf::Writer: when the
        // injected write fault kills RCA construction, neither the final
        // path nor its temp staging file survives.
        use faultline::{site, FaultPlan};
        use std::sync::Arc;
        let dir = make_files("rca-abort", "170728224510", 2, 3, 20);
        let cat = FileCatalog::scan(&dir).unwrap();
        let out = dir.join("aborted.rca.dasf");
        let plan = Arc::new(FaultPlan::new(11).with(site::DASF_WRITE_ERR, 1.0));
        faultline::with_plan(plan, || {
            assert!(create_rca(cat.entries(), &out).is_err());
        });
        assert!(!out.exists(), "no torn RCA at the final path");
        let tmp = {
            let mut os = out.clone().into_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        assert!(!tmp.exists(), "staging file cleaned up");
    }

    #[test]
    fn rca_file_is_larger_than_vca_descriptor() {
        // Table I: RCA needs ~100% extra space, VCA ~0%.
        let dir = make_files("rca-size", "170728224510", 3, 4, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        let vca = Vca::from_entries(cat.entries()).unwrap();
        let rca_path = dir.join("merged.rca.dasf");
        let vca_path = dir.join("merged.vca.dasf");
        create_rca(cat.entries(), &rca_path).unwrap();
        vca.save(&vca_path).unwrap();
        let rca_size = std::fs::metadata(&rca_path).unwrap().len();
        let vca_size = std::fs::metadata(&vca_path).unwrap().len();
        let data_size: u64 = 3 * 4 * 60 * 4; // files × ch × samples × f32
        assert!(rca_size >= data_size, "RCA must duplicate all data");
        assert!(vca_size < data_size / 4, "VCA must stay metadata-sized");
    }
}
