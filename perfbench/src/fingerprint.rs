//! Host and configuration stamp printed with every result: a number
//! from this benchmark is only comparable with another taken on the
//! same host under the same settings.

use crate::report::json_str;
use gen_nerf_nn::kernels::{self, Backend};

/// The environment knobs that change what the program does.
pub const KNOBS: [&str; 3] = ["GEN_NERF_THREADS", "GEN_NERF_KERNEL", "GEN_NERF_INTEGRITY"];

#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub backend_detected: &'static str,
    pub backend_active: &'static str,
    pub knobs: Vec<(&'static str, String)>,
    pub git_rev: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Fingerprint {
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Self {
            cpu_model: parse_cpu_model(&cpuinfo),
            nproc: nproc(),
            backend_detected: Backend::detect().name(),
            backend_active: kernels::active_backend().name(),
            knobs: KNOBS
                .iter()
                .map(|&k| (k, std::env::var(k).unwrap_or_else(|_| "unset".into())))
                .collect(),
            git_rev: git_rev(std::path::Path::new(".git")),
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        }
    }

    pub fn to_json(&self) -> String {
        let knobs: Vec<String> = self
            .knobs
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!(
            "{{\"cpu_model\": {}, \"nproc\": {}, \"backend_detected\": {}, \
             \"backend_active\": {}, \"env\": {{{}}}, \"git_rev\": {}, \"workload\": {}, \
             \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            json_str(&self.cpu_model),
            self.nproc,
            json_str(self.backend_detected),
            json_str(self.backend_active),
            knobs.join(", "),
            json_str(&self.git_rev),
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of a `/proc/cpuinfo` dump.
pub fn parse_cpu_model(cpuinfo: &str) -> String {
    cpuinfo
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim() == "model name")
        .map(|(_, v)| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of a git checkout, read from its `.git` directory
/// (`"unknown"` outside a git checkout).
pub fn git_rev(git_dir: &std::path::Path) -> String {
    let read = |p: &str| std::fs::read_to_string(git_dir.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    resolve_head(&head, |r| read(r), read("packed-refs").as_deref())
}

/// Resolves `HEAD` contents to a commit: a detached hash as is, a
/// symbolic ref through its loose ref file or the packed-refs table.
pub fn resolve_head(
    head: &str,
    loose: impl Fn(&str) -> Option<String>,
    packed: Option<&str>,
) -> String {
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref:").map(str::trim) else {
        return head.to_string();
    };
    if let Some(rev) = loose(reference) {
        return rev.trim().to_string();
    }
    packed
        .unwrap_or("")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| name.trim() == reference)
        .map(|(rev, _)| rev.to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_is_the_first_model_name() {
        let dump = "processor\t: 0\nvendor_id\t: AuthenticAMD\n\
                    model name\t: AMD EPYC 7B13\nflags\t\t: avx2 fma\n\n\
                    processor\t: 1\nmodel name\t: other\n";
        assert_eq!(parse_cpu_model(dump), "AMD EPYC 7B13");
        assert_eq!(parse_cpu_model(""), "unknown");
        assert_eq!(parse_cpu_model("model name\t:\n"), "unknown");
    }

    #[test]
    fn head_resolves_through_loose_and_packed_refs() {
        let loose = |r: &str| (r == "refs/heads/main").then(|| "abc123\n".to_string());
        assert_eq!(
            resolve_head("ref: refs/heads/main\n", loose, None),
            "abc123"
        );
        let none = |_: &str| None;
        let packed = "# pack-refs with: peeled\ndef456 refs/heads/dev\n";
        assert_eq!(
            resolve_head("ref: refs/heads/dev", none, Some(packed)),
            "def456"
        );
        assert_eq!(
            resolve_head("ref: refs/heads/gone", none, Some(packed)),
            "unknown"
        );
        assert_eq!(resolve_head("0123abcd\n", none, None), "0123abcd");
    }

    #[test]
    fn json_stamp_names_every_knob() {
        let fp = Fingerprint::collect("render_ctf", 7, 10, false);
        let json = fp.to_json();
        for knob in KNOBS {
            assert!(json.contains(knob), "{json}");
        }
        assert!(json.contains("\"seed\": 7"));
    }
}
