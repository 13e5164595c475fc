//! # nexsort-cli
//!
//! `xsort`: a command-line XML sorter, merger, and batch updater built on
//! the NEXSORT reproduction. See [`app::USAGE`] for the interface.

#![warn(missing_docs)]

pub mod app;
pub mod specarg;
