//! Helpers shared by the integration tests.

use segbus_model::mapping::Psm;

/// The committed corpus scenarios as (`family/file.sbd`, parsed PSM),
/// sorted by path.
pub fn corpus() -> Vec<(String, Psm)> {
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus"));
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(root)
        .expect("corpus/ directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            p.is_dir().then_some(p)
        })
        .flat_map(|dir| {
            std::fs::read_dir(dir)
                .expect("corpus family dir")
                .filter_map(|e| {
                    let p = e.ok()?.path();
                    (p.extension()? == "sbd").then_some(p)
                })
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), 15, "the corpus has fifteen scenarios");
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable scenario");
            let psm = segbus_dsl::parse_system(&text).expect("committed scenario parses");
            let rel = p.strip_prefix(root).expect("corpus path");
            let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            (parts.join("/"), psm)
        })
        .collect()
}
