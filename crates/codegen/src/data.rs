//! Conversion of IR globals (and the float constant pool) into
//! assembler data items.

use br_ir::{GlobalInit, Module};
use br_isa::DataItem;

/// Lower every global of `module` to a [`DataItem`], in declaration order.
pub fn lower_globals(module: &Module) -> Vec<DataItem> {
    module
        .globals
        .iter()
        .map(|g| {
            let size = g.size();
            let bytes = match &g.init {
                GlobalInit::Zero => vec![0u8; size],
                GlobalInit::Bytes(b) => {
                    let mut v = b.clone();
                    v.resize(size, 0);
                    v
                }
                GlobalInit::Words(ws) => {
                    let mut v: Vec<u8> = ws.iter().flat_map(|w| w.to_le_bytes()).collect();
                    v.resize(size, 0);
                    v
                }
            };
            DataItem {
                name: g.name.clone(),
                align: g.ty.align(),
                bytes,
            }
        })
        .collect()
}

/// Lower the float constant pool.
pub fn lower_pool(items: Vec<(String, u32)>) -> Vec<DataItem> {
    items
        .into_iter()
        .map(|(name, bits)| DataItem {
            name,
            align: 4,
            bytes: bits.to_le_bytes().to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_ir::{Global, Ty};

    #[test]
    fn zero_init_fills_size() {
        let mut m = Module::new();
        m.add_global(Global {
            name: "g".into(),
            ty: Ty::Array(Box::new(Ty::Int), 3),
            init: GlobalInit::Zero,
        });
        let items = lower_globals(&m);
        assert_eq!(items[0].bytes, vec![0u8; 12]);
        assert_eq!(items[0].align, 4);
    }

    #[test]
    fn words_are_little_endian() {
        let mut m = Module::new();
        m.add_global(Global {
            name: "g".into(),
            ty: Ty::Array(Box::new(Ty::Int), 2),
            init: GlobalInit::Words(vec![1, -1]),
        });
        let items = lower_globals(&m);
        assert_eq!(items[0].bytes, vec![1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn pool_items_are_words() {
        let items = lower_pool(vec![("__fc0".into(), 0x3FC0_0000)]);
        assert_eq!(items[0].bytes, vec![0, 0, 0xC0, 0x3F]);
        assert_eq!(items[0].align, 4);
    }
}
