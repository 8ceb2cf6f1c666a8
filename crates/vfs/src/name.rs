//! A directory entry's name, inline when it is short.

/// The longest name held inline: every name of the Andrew tree and
/// Nhfsstone's short ones. Nhfsstone's long names (42 bytes and more,
/// past the name cache's 31) are boxed, one allocation as each file is
/// created.
const NAME_INLINE: usize = 23;

/// A directory entry's name: up to [`NAME_INLINE`] bytes inline, a longer
/// one (up to `NAME_MAX`) in a box of its own.
#[derive(Debug)]
pub(crate) enum Name {
    /// A short name's bytes, `len` of them.
    Inline { len: u8, bytes: [u8; NAME_INLINE] },
    /// A long name.
    Boxed(Box<str>),
}

impl Name {
    /// The entry name `name`; only a name past [`NAME_INLINE`] bytes
    /// allocates.
    pub(crate) fn new(name: &str) -> Self {
        let src = name.as_bytes();
        let mut bytes = [0; NAME_INLINE];
        match bytes.get_mut(..src.len()) {
            Some(head) => {
                head.copy_from_slice(src);
                Name::Inline {
                    len: src.len() as u8,
                    bytes,
                }
            }
            None => Name::Boxed(name.into()),
        }
    }

    /// The name's bytes, which order entries as `str`'s `Ord` does.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, bytes } => &bytes[..*len as usize],
            Name::Boxed(s) => s.as_bytes(),
        }
    }

    /// The name.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => std::str::from_utf8(self.as_bytes()).expect("made from a str"),
            Name::Boxed(s) => s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_up_to_23_bytes_are_inline_and_longer_ones_boxed() {
        for len in [1, 22, 23, 24, 255] {
            let s = "é".repeat(len / 2) + &"x".repeat(len % 2);
            let n = Name::new(&s);
            assert_eq!(n.as_str(), s);
            assert_eq!(n.as_bytes(), s.as_bytes());
            assert_eq!(
                matches!(n, Name::Inline { .. }),
                s.len() <= NAME_INLINE,
                "{len}"
            );
        }
    }
}
