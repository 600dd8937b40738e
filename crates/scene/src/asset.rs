//! Image assets and the asset registry.
//!
//! Figure 2 of the paper shows "an image object with white background …
//! mounted on the video frame". An [`ImageAsset`] is such an image: a
//! small RGB bitmap plus an optional colour key that the compositor
//! treats as transparent (reproducing the white-background effect
//! properly). The [`AssetStore`] is the project-wide registry both
//! editors and the runtime share.

use std::collections::BTreeMap;

use vgbl_media::color::Rgb;
use vgbl_media::Frame;
use vgbl_obs::hash::fnv1a;

use crate::{Result, SceneError};

/// A named bitmap that can be mounted on video frames.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageAsset {
    /// Unique asset name.
    pub name: String,
    /// Pixel data.
    pub image: Frame,
    /// Colour treated as transparent when compositing, if any.
    pub color_key: Option<Rgb>,
}

impl ImageAsset {
    /// Creates an opaque asset.
    pub fn opaque(name: impl Into<String>, image: Frame) -> ImageAsset {
        ImageAsset { name: name.into(), image, color_key: None }
    }

    /// Creates an asset whose `key` pixels are transparent.
    pub fn keyed(name: impl Into<String>, image: Frame, key: Rgb) -> ImageAsset {
        ImageAsset { name: name.into(), image, color_key: Some(key) }
    }

    /// Generates a simple placeholder sprite: a coloured glyph-like shape
    /// on a white background with a white colour key — the style of the
    /// paper's umbrella object. Deterministic for a given name.
    pub fn placeholder(name: impl Into<String>, w: u32, h: u32) -> ImageAsset {
        let name = name.into();
        let color = Rgb::from_seed(fnv1a(name.as_bytes()));
        let mut image = Frame::filled(w.max(3), h.max(3), Rgb::WHITE)
            .expect("placeholder dims are small and valid");
        // A filled diamond reads as an "object" at any size.
        let (cw, ch) = (image.width() as i64, image.height() as i64);
        for y in 0..ch {
            for x in 0..cw {
                let dx = (2 * x - cw + 1).abs();
                let dy = (2 * y - ch + 1).abs();
                if dx * ch + dy * cw <= cw * ch {
                    image.set(x as u32, y as u32, color);
                }
            }
        }
        ImageAsset::keyed(name, image, Rgb::WHITE)
    }
}

/// A project-wide, name-keyed registry of image assets.
///
/// Backed by a `BTreeMap` so iteration (and therefore serialisation and
/// rendering) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssetStore {
    assets: BTreeMap<String, ImageAsset>,
}

impl AssetStore {
    /// An empty store.
    pub fn new() -> AssetStore {
        AssetStore::default()
    }

    /// Inserts or replaces an asset; returns the previous one if any.
    pub fn insert(&mut self, asset: ImageAsset) -> Option<ImageAsset> {
        self.assets.insert(asset.name.clone(), asset)
    }

    /// Looks an asset up by name.
    pub fn get(&self, name: &str) -> Option<&ImageAsset> {
        self.assets.get(name)
    }

    /// Like [`AssetStore::get`] but with a typed error.
    pub fn require(&self, name: &str) -> Result<&ImageAsset> {
        self.get(name)
            .ok_or_else(|| SceneError::UnknownAsset(name.to_owned()))
    }

    /// Removes an asset by name.
    pub fn remove(&mut self, name: &str) -> Option<ImageAsset> {
        self.assets.remove(name)
    }

    /// Whether `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.assets.contains_key(name)
    }

    /// Iterates assets in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ImageAsset> {
        self.assets.values()
    }

    /// Number of assets.
    pub fn len(&self) -> usize {
        self.assets.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.assets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_insert_get_remove() {
        let mut store = AssetStore::new();
        assert!(store.is_empty());
        store.insert(ImageAsset::placeholder("umbrella", 8, 8));
        assert_eq!(store.len(), 1);
        assert!(store.contains("umbrella"));
        assert!(store.get("umbrella").is_some());
        assert!(store.require("umbrella").is_ok());
        assert!(matches!(store.require("hat"), Err(SceneError::UnknownAsset(_))));
        let prev = store.insert(ImageAsset::placeholder("umbrella", 4, 4));
        assert!(prev.is_some());
        assert_eq!(store.len(), 1);
        assert!(store.remove("umbrella").is_some());
        assert!(store.remove("umbrella").is_none());
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut store = AssetStore::new();
        for name in ["zebra", "apple", "mid"] {
            store.insert(ImageAsset::placeholder(name, 4, 4));
        }
        let names: Vec<&str> = store.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["apple", "mid", "zebra"]);
    }

    #[test]
    fn placeholder_is_deterministic_and_keyed() {
        let a = ImageAsset::placeholder("fan", 9, 9);
        let b = ImageAsset::placeholder("fan", 9, 9);
        assert_eq!(a, b);
        assert_eq!(a.color_key, Some(Rgb::WHITE));
        // Centre is painted, corner stays white (transparent).
        let c = a.image.get(4, 4).unwrap();
        assert_ne!(c, Rgb::WHITE);
        assert_eq!(a.image.get(0, 0), Some(Rgb::WHITE));
        // Different names give different colours almost surely.
        let other = ImageAsset::placeholder("ram", 9, 9);
        assert_ne!(other.image.get(4, 4), a.image.get(4, 4));
    }

    #[test]
    fn placeholder_clamps_tiny_sizes() {
        let a = ImageAsset::placeholder("x", 0, 1);
        assert!(a.image.width() >= 3 && a.image.height() >= 3);
    }
}
