//! The expected output of every op, and the digests it is stated in.
//!
//! `golden.json` maps a section (`<workload>/<scale>`) to the output of each
//! op in it: the FNV-1a digest of a paper experiment's text, the
//! `instructions cycles` of a replay cell, the `instructions entry-digest`
//! of a captured workload. Regenerate it with
//! `cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored`.

use std::collections::BTreeMap;

use arl_sim::TraceEntry;
use arl_stats::Json;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Running digest of a trace-entry stream: FNV-1a taken a 64-bit word at a
/// time over exactly the fields `TraceEntry`'s `PartialEq` compares, so a
/// change of trace format or of the model hints leaves it unchanged.
#[derive(Debug)]
pub struct EntryDigest(u64);

impl Default for EntryDigest {
    fn default() -> EntryDigest {
        EntryDigest(FNV_OFFSET)
    }
}

impl EntryDigest {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Folds one entry in.
    pub fn push(&mut self, e: &TraceEntry) {
        self.word(e.pc);
        self.word(arl_isa::encode(&e.inst));
        match e.mem {
            None => self.word(0),
            Some(m) => {
                self.word(
                    1 | m.width.bytes() << 8 | u64::from(m.is_load) << 16 | (m.region as u64) << 24,
                );
                self.word(m.addr);
            }
        }
        self.word(u64::from(e.taken));
        self.word(e.next_pc);
        match e.gpr_write {
            None => self.word(0),
            Some((reg, value)) => {
                self.word(1 | (reg.index() as u64) << 8);
                self.word(value as u64);
            }
        }
        self.word(e.ghr);
        self.word(e.ra);
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Expected op outputs, by section and op key.
#[derive(Debug, Default)]
pub struct Golden(pub BTreeMap<String, BTreeMap<String, String>>);

impl Golden {
    /// The `golden.json` compiled into the binary.
    pub fn embedded() -> Result<Golden, String> {
        Golden::parse(include_str!("../golden.json"))
    }

    /// Parses a golden document.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
        let Json::Obj(sections) = doc else {
            return Err("golden.json: not an object".into());
        };
        let mut golden = Golden::default();
        for (section, ops) in sections {
            let Json::Obj(ops) = ops else {
                return Err(format!("golden.json: section {section} is not an object"));
            };
            let mut map = BTreeMap::new();
            for (key, value) in ops {
                let value = value
                    .as_str()
                    .ok_or_else(|| format!("golden.json: {section}/{key} is not a string"))?;
                map.insert(key, value.to_string());
            }
            golden.0.insert(section, map);
        }
        Ok(golden)
    }

    /// Renders the document, one op per line so diffs stay readable.
    #[cfg(test)]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (si, (section, ops)) in self.0.iter().enumerate() {
            out += &format!("  {}: {{\n", Json::from(section.as_str()));
            for (oi, (key, value)) in ops.iter().enumerate() {
                let comma = if oi + 1 < ops.len() { "," } else { "" };
                out += &format!(
                    "    {}: {}{comma}\n",
                    Json::from(key.as_str()),
                    Json::from(value.as_str())
                );
            }
            out += if si + 1 < self.0.len() {
                "  },\n"
            } else {
                "  }\n"
            };
        }
        out + "}\n"
    }

    /// Checks one op's output.
    pub fn check(&self, section: &str, key: &str, output: &str) -> Result<(), String> {
        match self.0.get(section).and_then(|ops| ops.get(key)) {
            Some(expected) if expected == output => Ok(()),
            Some(expected) => Err(format!(
                "output {output:?} differs from golden {expected:?}"
            )),
            None => Err(format!("no golden entry for {section} {key}")),
        }
    }
}
