//! One router image: everything a router's construction derives from its
//! quantum and its crossbar alone — the configuration space, each port's
//! generated and validated switch programs with their PC tables, and the
//! crossbar jump tables — built once and shared by every router that
//! needs it.
//!
//! The paper computes the configuration space and the jump table once,
//! at compile time, and every chip loads the same switch code (§6). So
//! does this crate: one process-wide memo keyed by exactly what the
//! derivation reads (`ImageKey`) hands every router built while another
//! still holds the image — a fabric's routers above all — the same
//! `Arc`s. Sharing is sound because nothing in an image is written after
//! it is built: a machine only reads the switch programs it is handed,
//! and a router copies the jump table into its crossbar tile's own
//! memory, which the tile may then read and write as it likes.
//!
//! The static verifier (`raw-verify`) reads the same images: the switch
//! programs it proves deadlock-free and FIFO-bounded, and the jump tables
//! it model-checks, are the `Arc`s a router installs, reached through
//! [`RouterImage::of`].
//!
//! The memo holds images weakly: an image lives as long as a router
//! holds it, so a process that builds routers of many quanta one after
//! another (a sweep, a property test) does not keep them all. The two
//! configuration spaces, the costliest step of a build, are kept for the
//! process.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use raw_sim::SwitchProgram;

use crate::asm_xbar::table_image_pc;
use crate::codegen::{
    gen_crossbar_switch, gen_egress_net1, gen_egress_switch, gen_ingress_switch, CrossbarCode,
    EgressCode, IngressCode,
};
use crate::config::{ConfigSpace, SchedPolicy};
use crate::layout::{PortTiles, RouterLayout};
use crate::programs::CrossbarProgram;

/// Everything a [`RouterImage`] is derived from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct ImageKey {
    quantum_words: usize,
    multicast: bool,
    asm_crossbar: bool,
}

impl ImageKey {
    /// The key of [`RouterImage::of`]'s arguments. The assembly crossbar
    /// indexes the destination-mask alphabet (§6.5) whatever the table,
    /// as a multicast table does.
    fn new(quantum_words: usize, multicast: bool, asm_crossbar: bool) -> ImageKey {
        ImageKey {
            quantum_words,
            multicast: multicast || asm_crossbar,
            asm_crossbar,
        }
    }
}

/// One port's share of a [`RouterImage`].
pub struct PortImage {
    pub ingress: IngressCode,
    pub crossbar: CrossbarCode,
    pub egress: EgressCode,
    pub egress_net1: Arc<SwitchProgram>,
    /// The crossbar tile's jump table as it is written into the tile's
    /// local memory: entries carry the grant in bit 31 over a
    /// local-configuration id (native core) or a switch PC (assembly
    /// core).
    pub table: Vec<u32>,
}

/// The immutable part of a router: see the module documentation.
pub struct RouterImage {
    /// The configuration space the crossbar jump tables index.
    pub cs: Arc<ConfigSpace>,
    /// One per port, in [`RouterLayout::canonical`] order.
    pub ports: Vec<PortImage>,
}

impl RouterImage {
    /// Derive the image for `key` afresh, validating the quantum and
    /// every generated switch program
    /// ([`raw_sim::SwitchProgram::validate`]).
    fn build(key: ImageKey) -> Result<RouterImage, String> {
        let q = key.quantum_words;
        if !(1..=raw_net::MAX_FRAG_WORDS).contains(&q) {
            return Err(format!(
                "quantum of {q} words must fit the fragment tag's word-count field (1..={})",
                raw_net::MAX_FRAG_WORDS
            ));
        }
        if q <= raw_net::IPV4_HEADER_WORDS {
            return Err(format!(
                "quantum of {q} words must exceed the {}-word IP header",
                raw_net::IPV4_HEADER_WORDS
            ));
        }
        let cs = config_space(key.multicast);
        let ports = (RouterLayout::canonical().ports.iter().enumerate())
            .map(|(i, p)| PortImage::build(i, p, &cs, key))
            .collect::<Result<_, _>>()?;
        Ok(RouterImage { cs, ports })
    }

    /// The image of a router with a `quantum_words`-word quantum, routing
    /// a `multicast` table or not, on the native or the assembly
    /// crossbar, shared with every router that holds one for the same
    /// key; built only when none is held. A failed build is not
    /// remembered.
    pub fn of(
        quantum_words: usize,
        multicast: bool,
        asm_crossbar: bool,
    ) -> Result<Arc<RouterImage>, String> {
        static IMAGES: OnceLock<Mutex<HashMap<ImageKey, Weak<RouterImage>>>> = OnceLock::new();
        let key = ImageKey::new(quantum_words, multicast, asm_crossbar);
        // The map is written only after a build succeeds, so a lock that
        // a panicking build poisoned still guards a sound map.
        let mut images = IMAGES
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(image) = images.get(&key).and_then(Weak::upgrade) {
            return Ok(image);
        }
        let image = Arc::new(RouterImage::build(key)?);
        images.retain(|_, held| held.strong_count() > 0);
        images.insert(key, Arc::downgrade(&image));
        Ok(image)
    }
}

impl PortImage {
    fn build(
        i: usize,
        p: &PortTiles,
        cs: &ConfigSpace,
        key: ImageKey,
    ) -> Result<PortImage, String> {
        let q = key.quantum_words;
        let ingress = gen_ingress_switch(p, q);
        let crossbar = gen_crossbar_switch(p, cs, q);
        let egress = gen_egress_switch(p, q);
        let egress_net1 = gen_egress_net1(p);
        for (what, prog) in [
            ("ingress", &*ingress.program),
            ("crossbar", &*crossbar.program),
            ("egress", &*egress.program),
            ("egress net-1", &egress_net1),
        ] {
            prog.validate()
                .map_err(|e| format!("port {i} {what} switch program: {e}"))?;
        }
        let table = if key.asm_crossbar {
            table_image_pc(cs, i, &crossbar)
        } else {
            CrossbarProgram::table_image(cs, i)
        };
        Ok(PortImage {
            ingress,
            crossbar,
            egress,
            egress_net1: Arc::new(egress_net1),
            table,
        })
    }
}

/// The configuration space over the unicast or the destination-mask
/// alphabet. Each is a pure function of that one flag, so the process
/// enumerates each at most once and keeps it.
fn config_space(multicast: bool) -> Arc<ConfigSpace> {
    static SPACES: [OnceLock<Arc<ConfigSpace>>; 2] = [OnceLock::new(), OnceLock::new()];
    let space = SPACES[usize::from(multicast)].get_or_init(|| {
        Arc::new(if multicast {
            ConfigSpace::enumerate_multicast()
        } else {
            ConfigSpace::enumerate(SchedPolicy::ShortestFirst)
        })
    });
    Arc::clone(space)
}
